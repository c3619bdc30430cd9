"""The benchmark kernels of the paper's evaluation, as DDG generators.

The paper compiles C/Fortran benchmarks (the Raw benchmark suite,
Nasa7 kernels from Spec92, Spec95 excerpts, and small DSP codes) with
Rawcc/Chorus, whose front ends unroll loops and build one dependence
graph per scheduling trace.  We reproduce that pipeline's *output*: each
function here emits the unrolled loop body of the benchmark's hot region
as an explicit dependence graph, with every memory operation tagged with
the bank its address congruence implies.

Graph shapes match the paper's characterization:

* dense-matrix codes (``jacobi``, ``life``, ``vpenta``, ``mxm``,
  ``swim``, ``tomcatv``, ``cholesky``, ``vvmul``, ``rbsorf``, ``yuv``,
  ``fir``) yield fat, parallel graphs rich in preplaced memory
  operations;
* ``fpppp_kernel`` (the inner loop of Spec95 fpppp) and ``sha`` yield
  long, narrow graphs dominated by serial chains with little useful
  preplacement — the two benchmarks where the paper's convergent
  scheduler loses to Rawcc.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..ir.builder import RegionBuilder, Value
from ..ir.opcode import Opcode
from ..ir.regions import Program


def jacobi(unroll: int = 16, banks: int = 16) -> Program:
    """Jacobi 4-point relaxation over one unrolled row sweep.

    ``new[r][c] = 0.25 * (a[r-1][c] + a[r+1][c] + a[r][c-1] + a[r][c+1])``
    with arrays column-interleaved across banks.
    """
    b = RegionBuilder("jacobi.body")
    quarter = b.li(0.25, name="0.25")
    for c in range(unroll):
        up = b.load(bank=c % banks, name=f"a[r-1][{c}]", array="a")
        down = b.load(bank=c % banks, name=f"a[r+1][{c}]", array="a")
        left = b.load(bank=(c - 1) % banks, name=f"a[r][{c - 1}]", array="a")
        right = b.load(bank=(c + 1) % banks, name=f"a[r][{c + 1}]", array="a")
        total = b.fadd(b.fadd(up, down), b.fadd(left, right))
        new = b.fmul(total, quarter)
        b.store(new, bank=c % banks, name=f"new[r][{c}]", array="new")
    return Program("jacobi", [b.build()])


def life(unroll: int = 16, banks: int = 16) -> Program:
    """Conway's Game of Life: 8-neighbour sum plus rule logic per cell."""
    b = RegionBuilder("life.body")
    two = b.li(2, name="2")
    three = b.li(3, name="3")
    for c in range(unroll):
        neighbours = []
        for dc, tag in ((-1, "w"), (0, "c"), (1, "e")):
            for row in ("n", "r", "s"):
                if row == "r" and dc == 0:
                    continue
                neighbours.append(
                    b.load(bank=(c + dc) % banks, name=f"{row}[{c}{tag}]", array="grid")
                )
        total = neighbours[0]
        for nb in neighbours[1:]:
            total = b.add(total, nb)
        alive = b.load(bank=c % banks, name=f"cell[{c}]", array="grid")
        born = b.op(Opcode.XOR, b.op(Opcode.SLT, total, three), b.li(1))
        stay = b.op(Opcode.SLT, two, b.add(total, alive))
        nxt = b.and_(born, stay)
        b.store(nxt, bank=c % banks, name=f"next[{c}]", array="next")
    return Program("life", [b.build()])


def mxm(unroll: int = 16, banks: int = 16, depth: int = 8) -> Program:
    """Dense matrix multiply: ``unroll`` dot products of length ``depth``.

    ``c[i][j] = sum_k a[i][k] * b[k][j]`` with ``b`` and ``c`` column-
    interleaved; the row of ``a`` is shared by every dot product.
    """
    builder = RegionBuilder("mxm.body")
    row = [builder.load(bank=k % banks, name=f"a[i][{k}]", array="a") for k in range(depth)]
    for j in range(unroll):
        col = [
            builder.load(bank=j % banks, name=f"b[{k}][{j}]", array="b") for k in range(depth)
        ]
        prods = [builder.fmul(a, x) for a, x in zip(row, col)]
        total = builder.reduce(prods)
        builder.store(total, bank=j % banks, name=f"c[i][{j}]", array="c")
    return Program("mxm", [builder.build()])


def cholesky(unroll: int = 16, banks: int = 16, depth: int = 6) -> Program:
    """Cholesky column update: dot-product eliminations, then sqrt/div.

    Models the Nasa7 kernel's factorization step: each of ``unroll`` rows
    subtracts a ``depth``-long dot product from ``a[i][j]``, the pivot
    takes a square root, and every row divides by it.
    """
    b = RegionBuilder("cholesky.body")
    pivot = b.load(bank=0, name="a[j][j]", array="a")
    ljk = [b.load(bank=k % banks, name=f"L[j][{k}]", array="L") for k in range(depth)]
    diag_update = b.reduce([b.fmul(x, x) for x in ljk])
    root = b.op(Opcode.FSQRT, b.fsub(pivot, diag_update), name="sqrt")
    for i in range(unroll):
        aij = b.load(bank=i % banks, name=f"a[{i}][j]", array="a")
        lik = [b.load(bank=(i + k) % banks, name=f"L[{i}][{k}]", array="L") for k in range(depth)]
        dot = b.reduce([b.fmul(x, y) for x, y in zip(lik, ljk)])
        updated = b.fsub(aij, dot)
        b.store(b.fdiv(updated, root), bank=i % banks, name=f"L[{i}][j]", array="Lcol")
    return Program("cholesky", [b.build()])


def tomcatv(unroll: int = 16, banks: int = 16) -> Program:
    """Tomcatv mesh-generation residual: a two-array 9-point stencil with
    a deep floating-point expression per point (Spec95)."""
    b = RegionBuilder("tomcatv.body")
    half = b.li(0.5)
    for c in range(unroll):
        xs = [
            b.load(bank=(c + d) % banks, name=f"x[{c}{d:+d}]", array="x")
            for d in (-1, 0, 1)
        ]
        ys = [
            b.load(bank=(c + d) % banks, name=f"y[{c}{d:+d}]", array="y")
            for d in (-1, 0, 1)
        ]
        xu = b.fsub(xs[2], xs[0])
        yu = b.fsub(ys[2], ys[0])
        xv = b.fsub(xs[1], b.fmul(half, b.fadd(xs[0], xs[2])))
        yv = b.fsub(ys[1], b.fmul(half, b.fadd(ys[0], ys[2])))
        alpha = b.fadd(b.fmul(xv, xv), b.fmul(yv, yv))
        beta = b.fadd(b.fmul(xu, xv), b.fmul(yu, yv))
        gamma = b.fadd(b.fmul(xu, xu), b.fmul(yu, yu))
        rx = b.fsub(b.fmul(alpha, xu), b.fmul(beta, xv))
        ry = b.fsub(b.fmul(gamma, yv), b.fmul(beta, yu))
        b.store(rx, bank=c % banks, name=f"rx[{c}]", array="rx")
        b.store(ry, bank=c % banks, name=f"ry[{c}]", array="ry")
    return Program("tomcatv", [b.build()])


def vpenta(unroll: int = 16, banks: int = 16, depth: int = 5) -> Program:
    """Vpenta (Nasa7): pentadiagonal elimination down independent columns.

    Each column carries a serial recurrence of length ``depth``; columns
    are independent, so the graph is a bundle of medium-length chains —
    parallel across clusters but serial within.
    """
    b = RegionBuilder("vpenta.body")
    for c in range(unroll):
        x = b.load(bank=c % banks, name=f"x[0][{c}]", array="x")
        for k in range(depth):
            coeff = b.load(bank=c % banks, name=f"f[{k}][{c}]", array="f")
            rhs = b.load(bank=(c + 1) % banks, name=f"r[{k}][{c}]", array="r")
            x = b.fsub(rhs, b.fmul(coeff, x), name=f"x[{k + 1}][{c}]")
        b.store(x, bank=c % banks, name=f"out[{c}]", array="out")
    return Program("vpenta", [b.build()])


def swim(unroll: int = 16, banks: int = 16) -> Program:
    """Swim (Spec): shallow-water model; U/V/P updates over a stencil."""
    b = RegionBuilder("swim.body")
    fsdx = b.li(4.0 / 0.25)
    fsdy = b.li(4.0 / 0.25)
    for c in range(unroll):
        p0 = b.load(bank=c % banks, name=f"p[{c}]", array="p")
        p1 = b.load(bank=(c + 1) % banks, name=f"p[{c + 1}]", array="p")
        u0 = b.load(bank=c % banks, name=f"u[{c}]", array="u")
        u1 = b.load(bank=(c + 1) % banks, name=f"u[{c + 1}]", array="u")
        v0 = b.load(bank=c % banks, name=f"v[{c}]", array="v")
        v1 = b.load(bank=(c - 1) % banks, name=f"v[{c - 1}]", array="v")
        cu = b.fmul(b.fadd(p1, p0), u1)
        cv = b.fmul(b.fadd(p1, p0), v1)
        z = b.fdiv(
            b.fadd(b.fmul(fsdx, b.fsub(v1, v0)), b.fmul(fsdy, b.fsub(u1, u0))),
            b.fadd(b.fadd(p0, p1), b.fadd(p0, p1)),
        )
        h = b.fadd(p0, b.fmul(b.fadd(u0, u1), b.fadd(v0, v1)))
        b.store(cu, bank=c % banks, name=f"cu[{c}]", array="cu")
        b.store(cv, bank=c % banks, name=f"cv[{c}]", array="cv")
        b.store(z, bank=c % banks, name=f"z[{c}]", array="z")
        b.store(h, bank=c % banks, name=f"h[{c}]", array="h")
    return Program("swim", [b.build()])


def fpppp_kernel(chains: int = 20, chain_length: int = 26, seed: int = 7) -> Program:
    """The fpppp inner loop: interleaved floating-point chains.

    Spec95 fpppp's kernel is a huge, nearly memory-free basic block:
    many medium-length floating-point dependence chains that cross-link
    frequently, exposing plenty of fine- and medium-grained ILP but
    carrying almost no preplacement information — the combination that
    makes it hard for preplacement-driven partitioners (the paper's
    convergent scheduler loses to Rawcc exactly here).  A seeded
    generator reproduces that shape.
    """
    rng = np.random.default_rng(seed)
    b = RegionBuilder("fpppp.kernel")
    heads = [b.live_in(name=f"t{i}") for i in range(chains)]
    chains_vals: List[Value] = list(heads)
    consts = [b.li(float(i + 1) / 3.0) for i in range(4)]
    for step in range(chain_length):
        for ci in range(chains):
            op = (Opcode.FMUL, Opcode.FADD, Opcode.FSUB)[int(rng.integers(3))]
            other: Value = consts[int(rng.integers(len(consts)))]
            # Frequent cross-chain links, as in the real kernel.
            if step and rng.random() < 0.12:
                other = chains_vals[int(rng.integers(chains))]
            chains_vals[ci] = b.op(op, chains_vals[ci], other)
    for ci, v in enumerate(chains_vals):
        b.live_out(v, name=f"out{ci}")
    return Program("fpppp-kernel", [b.build()])


def sha(rounds: int = 12, banks: int = 16, blocks: int = 4) -> Program:
    """Secure Hash Algorithm rounds: serial integer recurrences.

    Each round rotates and mixes the five-word state, forming a long
    dependence spine with small per-round fan-in.  ``blocks``
    independent message blocks are interleaved (the natural unrolling of
    a multi-block hash), so the graph offers block-level parallelism but
    only fine-grained parallelism within a block, and preplacement that
    tells the scheduler little — the paper's second hard case on Raw.
    """
    b = RegionBuilder("sha.rounds")
    k = b.li(0x5A827999, name="k")
    five = b.li(5)
    twenty_seven = b.li(27)
    thirty = b.li(30)
    two = b.li(2)
    finals: List[Value] = []
    for blk in range(blocks):
        state = [b.live_in(name=f"{n}{blk}") for n in ("a", "b", "c", "d", "e")]
        finals.extend(_sha_block(b, state, rounds, banks, blk, k, five, twenty_seven, thirty, two))
    for i, v in enumerate(finals):
        b.live_out(v, name=f"h{i}")
    return Program("sha", [b.build()])


def _sha_block(b, state, rounds, banks, blk, k, five, twenty_seven, thirty, two):
    """Emit ``rounds`` SHA-1 rounds for one message block."""
    from ..ir.opcode import Opcode as _Op

    for r in range(rounds):
        a, bb, c, d, e = state
        w = b.load(bank=(blk * rounds + r) % banks, name=f"w{blk}[{r}]", array="w")
        rotl5 = b.or_(b.shl(a, five), b.op(_Op.SHR, a, twenty_seven))
        f = b.xor(bb, b.xor(c, d))
        tmp = b.add(b.add(rotl5, f), b.add(e, b.add(k, w)))
        c_new = b.or_(b.shl(bb, thirty), b.op(_Op.SHR, bb, two))
        state = [tmp, a, c_new, c, d]
    return state


def vvmul(unroll: int = 8, banks: int = 16, depth: int = 4) -> Program:
    """Simple matrix multiply (the paper's vvmul): short dot products."""
    b = RegionBuilder("vvmul.body")
    for i in range(unroll):
        prods = []
        for k in range(depth):
            x = b.load(bank=(i + k) % banks, name=f"a[{i}][{k}]", array="a")
            y = b.load(bank=k % banks, name=f"b[{k}]", array="b")
            prods.append(b.fmul(x, y))
        b.store(b.reduce(prods), bank=i % banks, name=f"c[{i}]", array="c")
    return Program("vvmul", [b.build()])


def rbsorf(unroll: int = 8, banks: int = 16) -> Program:
    """Red-black successive over-relaxation (floating point)."""
    b = RegionBuilder("rbsorf.body")
    omega4 = b.li(1.9 / 4.0)
    one_minus = b.li(1.0 - 1.9)
    for c in range(unroll):
        north = b.load(bank=c % banks, name=f"n[{c}]", array="black")
        south = b.load(bank=c % banks, name=f"s[{c}]", array="black")
        east = b.load(bank=(c + 1) % banks, name=f"e[{c}]", array="black")
        west = b.load(bank=(c - 1) % banks, name=f"w[{c}]", array="black")
        old = b.load(bank=c % banks, name=f"o[{c}]", array="red")
        stencil = b.fmul(omega4, b.fadd(b.fadd(north, south), b.fadd(east, west)))
        new = b.fadd(stencil, b.fmul(one_minus, old))
        b.store(new, bank=c % banks, name=f"r[{c}]", array="red")
    return Program("rbsorf", [b.build()])


def yuv(unroll: int = 8, banks: int = 16) -> Program:
    """RGB to YUV colour conversion: a 3x3 matrix per pixel."""
    b = RegionBuilder("yuv.body")
    coeffs = [
        [b.li(x) for x in (0.299, 0.587, 0.114)],
        [b.li(x) for x in (-0.147, -0.289, 0.436)],
        [b.li(x) for x in (0.615, -0.515, -0.100)],
    ]
    for p in range(unroll):
        rgb = [
            b.load(bank=(3 * p + ch) % banks, name=f"{n}[{p}]", array="rgb")
            for ch, n in enumerate("rgb")
        ]
        for out_idx, row in enumerate(coeffs):
            acc = b.reduce([b.fmul(c, v) for c, v in zip(row, rgb)])
            b.store(acc, bank=(3 * p + out_idx) % banks, name=f"yuv{out_idx}[{p}]", array="yuv")
    return Program("yuv", [b.build()])


def fir(unroll: int = 8, banks: int = 16, taps: int = 8) -> Program:
    """FIR filter: sliding dot product against ``taps`` coefficients."""
    b = RegionBuilder("fir.body")
    h = [b.live_in(name=f"h[{t}]") for t in range(taps)]
    for i in range(unroll):
        xs = [
            b.load(bank=(i + t) % banks, name=f"x[{i + t}]", array="x") for t in range(taps)
        ]
        prods = [b.fmul(c, x) for c, x in zip(h, xs)]
        b.store(b.reduce(prods), bank=i % banks, name=f"y[{i}]", array="y")
    return Program("fir", [b.build()])


#: All kernels, keyed by benchmark name (paper spelling).
KERNELS: Dict[str, Callable[..., Program]] = {
    "cholesky": cholesky,
    "tomcatv": tomcatv,
    "vpenta": vpenta,
    "mxm": mxm,
    "fpppp-kernel": fpppp_kernel,
    "sha": sha,
    "swim": swim,
    "jacobi": jacobi,
    "life": life,
    "vvmul": vvmul,
    "rbsorf": rbsorf,
    "yuv": yuv,
    "fir": fir,
}
