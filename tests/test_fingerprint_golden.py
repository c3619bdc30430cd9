"""Schedule keys pinned byte for byte.

A persisted :class:`~repro.engine.cache.ScheduleCache` is only reusable
while every key it was written under comes out the same, so the key's
text is part of the cache's on-disk format.  Two checks hold it still:

* **golden keys** — the committed ``schedule_key(...).key`` and
  ``ddg_fingerprint`` of every suite program on its machine.  Any change
  to these values requires bumping ``FINGERPRINT_SCHEMA_VERSION``;
* **the json.dumps oracle** — the straightforward implementation the
  fingerprint module used to carry (one ``json.dumps(...,
  sort_keys=True, default=str)`` per digested payload, the DDG section
  built as a dict), kept here as the reference the fragment-spliced text
  of :mod:`repro.engine.fingerprint` must reproduce exactly on random
  graphs;
* **the canonical-form memo** — memoized forms equal fresh ones and the
  oracle, for the graph as it is at each call: after in-place edits, in
  either adjacency order, with numpy scalar attributes, from 4 threads.
  The memo key's columns decode back to every instruction and adjacency
  list, type for type, and the key tells apart exactly the graphs the
  earlier one-tuple-per-edge key (``_tuple_key``) did;
* **the stamped per-graph memo** — after every write a random sequence
  makes through each write path (the graph API, instruction attribute
  writes, in-place edge swaps and reorders, private instruction-list
  writes), the served form is the fresh one, and an unchanged graph is
  served without reading its content; copies get their own entries and
  a freed graph leaves the memo;
* **the machine-text memo** — memoized machine texts equal the oracle
  for the machine as it is at each call, and machines equal in all the
  payload reads share one.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from copy import copy as shallow_copy, deepcopy
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.fingerprint as fp_mod
from repro import ConvergentScheduler
from repro.engine import FINGERPRINT_SCHEMA_VERSION
from repro.engine.fingerprint import (
    CANONICAL_MEMO_CAPACITY,
    MACHINE_MEMO_CAPACITY,
    _digest_text,
    canonical_form,
    content_digest,
    canonical_permutation,
    ddg_fingerprint,
    machine_payload,
    machine_payload_text,
    machine_spec_text,
    schedule_key,
    scheduler_payload,
)
from repro.ir import DataDependenceGraph, Opcode
from repro.ir.instruction import Instruction, instruction_writes
from repro.ir.regions import Region
from repro.machine import ClusteredVLIW, RawMachine, machine_from_spec
from repro.schedulers import UnifiedAssignAndSchedule
from repro.serve.wire import WireError, region_from_dict, region_to_dict
from repro.workloads import build_benchmark

#: ``(machine, program, schedule_key(...).key, ddg_fingerprint)`` for the
#: one region of each suite program under a default ConvergentScheduler.
GOLDEN_KEYS = [
    ("raw4x4", "cholesky",
     "ec1aa98dbc6ad9067491faaf32d8ff033bf9b0482e58734521d9e91c1e76a398",
     "ed6f3c398c53e050fd4a350896ebcfb2882d9687dd06895f89a7d0ffdeade5b9"),
    ("raw4x4", "tomcatv",
     "778f9a93e201dc3f868e5d48028a676b1a4ff48b591f3d2a1bef6a4f9423cb45",
     "1a4da3a06cbe8033a344df2e09c43cb92219ed9dbbcf939b2f356457cbd34941"),
    ("raw4x4", "vpenta",
     "381209b253dbd0ffa7a9178802a2955296bbca920cf0704ba98742c28105770e",
     "f7b423aa21647bb6539d810d8faec8ed8381f4ab1dfa848f9a870ad99da258f3"),
    ("raw4x4", "mxm",
     "67f5c4a3cc0aac87df515326131777d741d5cf830f3d9a8ca7fbb8ad439bffb5",
     "4a82e41750714e13b01b29381c55c5251261f4dea631e93aa90c024f2c830d8d"),
    ("raw4x4", "fpppp-kernel",
     "c19b41949faa4ccdc06484888e321652c590ee7b8e9a98e57e13b6e965b284be",
     "4fb5eec6aeaaea26927ddbbfba241d225f1ec0d2a96c3251e935fbdf3c482d61"),
    ("raw4x4", "sha",
     "e3d4fb2366e43640ec6fb78546409f1e75a1ce677d8a60b4e06ed2a077434eb5",
     "dd234ba8a277ee5a06e944105e1b35273a46fe5c8d6ae53d3fc8dcee71dc3f42"),
    ("raw4x4", "swim",
     "88b8d3550fdb733824d2fff4bf9dc8da9e5c97ac79f10a77c46cf16f926ef86b",
     "4b3aa4c8b5336f718e35ab1c4a7ed5aedad37ae7ea4da1dfd61f3f60b8f63749"),
    ("raw4x4", "jacobi",
     "1ad4b8085f284537efefcba277d8ab078bb599685137e01cd46b3faf17823f54",
     "a5a93e3369d8fcffb6c51ee72f0c5ac4744fa9a539a0dc0e0c429577811f1d78"),
    ("raw4x4", "life",
     "9404edf576c7d3055de1f477976c8fb7a327ea440d15b562c0370679ef781843",
     "6721262bd5c78cdf884ff8324f8c6ff60cd95092e39c1234b1fc85d092618e17"),
    ("vliw4", "vvmul",
     "7151f50bcb4032a05ac1208c4db6a7e77740144992d41ad05a2fd368abb8057a",
     "d277311211ea5b3664503c799dfb3d763924baa20d63afeaf466c49557d6dcab"),
    ("vliw4", "rbsorf",
     "b65ad4184d2d294fc87d937f761afb038a0efc4d822d322ff0220ad178265f3b",
     "5d9b5a2736aee96d93153f5546d9a3142874b6af51302c0e6c5c8c77551974a1"),
    ("vliw4", "yuv",
     "e1c1ff19e0394e3809ee1deacf9ad2302b34da9ab712d8842f6aa29fabf2b584",
     "eea49a137acef1e3fa4105b7b9dd1b0d70b6f84d9d4455d670bd1c08384ec6c8"),
    ("vliw4", "tomcatv",
     "9bc5b8d8d266b93e986a87d2fea72e18b07d6da6e010334e3a7205048c1f2d36",
     "00652bfd9225b686445f8eafd6ec2f8f814263cc7c60c77052878459cc0ebbdd"),
    ("vliw4", "mxm",
     "0844176cf100c919933266bf7357ca63c8adc5db5a3e9683eba5e7fd7cf23718",
     "6b34c285606272966e128648c7a2911fbf1433477131c54ac716bb75cdaabd17"),
    ("vliw4", "fir",
     "2ecd18c29f645e00ac6b31548c7084ad52398799e7e7972f5f8f8f85c2f0d39d",
     "965d0bb37add7e5245f5b834e966c3fff48e36669a8d0206d4632a393434686a"),
    ("vliw4", "cholesky",
     "87ee124b82bdc6b6c5fb515028b43d261999f114a0f1bbe5124eea21f8f33ccd",
     "49679344262e24da14c19f458cae78e2be4294624482cea81add64983c0af63f"),
]

#: vliw4/mxm keyed with ``verify=True`` and ``check_values=False``.
GOLDEN_VARIANT_KEY = "613f8148504412bf51f2125adb2a90b036b48206a6af14589f2293373b52ac73"


# ----------------------------------------------------------------------
# The json.dumps oracle
# ----------------------------------------------------------------------


def oracle_digest(payload: Any) -> str:
    """SHA-256 hex digest of one ``json.dumps`` of the payload."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def oracle_signature(ddg: DataDependenceGraph, uid: int) -> List[Any]:
    """Label-independent attribute signature of one instruction."""
    inst = ddg.instruction(uid)
    return [inst.opcode.value, inst.home_cluster, inst.bank, inst.immediate]


def oracle_permutation(ddg: DataDependenceGraph) -> Tuple[int, ...]:
    """Canonical position of each uid, one ``json.dumps`` per hash."""
    n = len(ddg)
    topo = ddg.topological_order()
    down: List[str] = [""] * n
    for uid in topo:
        preds = sorted(
            (e.kind, e.latency, down[e.src]) for e in ddg.predecessors(uid)
        )
        operands = [down[op] for op in ddg.instruction(uid).operands]
        down[uid] = oracle_digest(["d", oracle_signature(ddg, uid), preds, operands])
    up: List[str] = [""] * n
    for uid in reversed(topo):
        succs = sorted(
            (e.kind, e.latency, up[e.dst]) for e in ddg.successors(uid)
        )
        up[uid] = oracle_digest(["u", oracle_signature(ddg, uid), succs])
    combined = [oracle_digest([down[uid], up[uid]]) for uid in range(n)]
    order = sorted(range(n), key=lambda uid: (combined[uid], uid))
    perm = [0] * n
    for position, uid in enumerate(order):
        perm[uid] = position
    return tuple(perm)


def oracle_ddg_payload(
    ddg: DataDependenceGraph, perm: Tuple[int, ...]
) -> Dict[str, Any]:
    """The graph in canonical coordinates, as the dict that was digested."""
    nodes = []
    for uid in sorted(range(len(ddg)), key=lambda u: perm[u]):
        operands = [perm[op] for op in ddg.instruction(uid).operands]
        nodes.append([oracle_signature(ddg, uid), operands])
    edges = sorted(
        [perm[e.src], perm[e.dst], e.kind, e.latency] for e in ddg.edges()
    )
    return {"nodes": nodes, "edges": edges}


def oracle_ddg_fingerprint(ddg: DataDependenceGraph) -> str:
    """Digest of the canonical graph payload alone."""
    return oracle_digest(oracle_ddg_payload(ddg, oracle_permutation(ddg)))


def oracle_schedule_key(
    region: Region,
    machine,
    scheduler,
    check_values: bool = True,
    verify: bool = False,
) -> str:
    """The composite request key as one ``json.dumps`` of the full payload."""
    perm = oracle_permutation(region.ddg)
    payload = {
        "schema_version": FINGERPRINT_SCHEMA_VERSION,
        "ddg": oracle_ddg_payload(region.ddg, perm),
        "machine": machine_payload(machine),
        "scheduler": scheduler_payload(scheduler),
        "region_name": region.name,
        "check_values": bool(check_values),
        "verify": bool(verify),
    }
    return oracle_digest(payload)


# ----------------------------------------------------------------------
# Golden keys
# ----------------------------------------------------------------------


def _suite_region(spec: str, name: str):
    machine = machine_from_spec(spec)
    program = build_benchmark(name, machine)
    assert len(program.regions) == 1
    return program.regions[0], machine


class TestGoldenKeys:
    def test_schema_version_is_one(self):
        assert FINGERPRINT_SCHEMA_VERSION == 1

    def test_suite_keys_unchanged(self):
        for spec, name, key, ddg_key in GOLDEN_KEYS:
            region, machine = _suite_region(spec, name)
            assert schedule_key(region, machine, ConvergentScheduler()).key == key, (
                f"{spec}/{name}"
            )
            assert ddg_fingerprint(region.ddg) == ddg_key, f"{spec}/{name}"

    def test_verified_variant_unchanged(self):
        region, machine = _suite_region("vliw4", "mxm")
        fp = schedule_key(
            region, machine, ConvergentScheduler(),
            check_values=False, verify=True,
        )
        assert fp.key == GOLDEN_VARIANT_KEY

    def test_precomputed_parts_give_the_same_keys(self):
        """``canonical=`` and ``machine_text=`` are what ``schedule_key``
        would compute itself."""
        for spec, name, key, _ in GOLDEN_KEYS:
            region, machine = _suite_region(spec, name)
            fp = schedule_key(
                region, machine, ConvergentScheduler(),
                canonical=canonical_form(region.ddg),
                machine_text=machine_spec_text(spec),
            )
            assert fp.key == key, f"{spec}/{name}"
            assert fp.permutation == canonical_permutation(region.ddg)

    def test_suite_matches_oracle(self):
        """Permutations too, not just the digests built on them."""
        for spec, name, _, _ in GOLDEN_KEYS:
            region, machine = _suite_region(spec, name)
            fp = schedule_key(region, machine, ConvergentScheduler())
            assert fp.permutation == oracle_permutation(region.ddg), f"{spec}/{name}"


# ----------------------------------------------------------------------
# Random graphs against the oracle
# ----------------------------------------------------------------------

_OPCODES = [Opcode.ADD, Opcode.FADD, Opcode.FMUL, Opcode.LOAD, Opcode.STORE, Opcode.LI]

#: Atoms that compare equal but serialize differently (1 / 1.0 / True,
#: 0.0 / -0.0), plus NaN and infinities, so a memo keyed on equality
#: alone would be caught splicing in the wrong text.
_IMMEDIATES = st.one_of(
    st.sampled_from([None, 1, 1.0, True, 0.0, -0.0, -3, -2.5, float("inf"), float("nan")]),
    st.floats(),
    st.integers(min_value=-(2**40), max_value=2**40),
)

#: Edge latencies, with the same equal-but-differently-serialized atoms.
_LATENCIES = st.sampled_from([0, 1, 2, 5, 1.0, -0.0, True])

_REGION_NAMES = st.one_of(
    st.sampled_from(["r", "région·Ω", "区域/𝔟", 'q"uote\\']),
    st.text(max_size=6),
)


@st.composite
def random_regions(draw, max_nodes: int = 14):
    """A random DAG exercising every field the DDG key reads."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    ddg = DataDependenceGraph()
    for uid in range(n):
        operands: List[int] = []
        if uid:
            operands = draw(
                st.lists(st.integers(min_value=0, max_value=uid - 1), max_size=3)
            )
            if operands and draw(st.booleans()):
                operands.append(operands[0])  # repeated operand
        ddg.new_instruction(
            draw(st.sampled_from(_OPCODES)),
            operands,
            home_cluster=draw(st.sampled_from([None, None, 0, 1, 3])),
            bank=draw(st.sampled_from([None, None, 0, 2])),
            immediate=draw(_IMMEDIATES),
        )
    if n > 1:
        extra = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 2),
                    st.integers(min_value=1, max_value=n - 1),
                    st.sampled_from(["data", "mem", "order"]),
                    _LATENCIES,
                ),
                max_size=2 * n,
            )
        )
        for src, dst, kind, latency in extra:
            if src < dst:
                ddg.add_dependence(src, dst, latency=latency, kind=kind)
    return Region(draw(_REGION_NAMES), ddg)


class TestAgainstOracle:
    @given(random_regions())
    @settings(max_examples=150, deadline=None)
    def test_ddg_fingerprint_and_permutation(self, region):
        assert canonical_permutation(region.ddg) == oracle_permutation(region.ddg)
        assert ddg_fingerprint(region.ddg) == oracle_ddg_fingerprint(region.ddg)

    @given(
        random_regions(),
        st.sampled_from(["vliw2", "raw2x2"]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_schedule_key(self, region, spec, check_values, verify, convergent):
        machine = ClusteredVLIW(2) if spec == "vliw2" else RawMachine(2, 2)
        scheduler = ConvergentScheduler() if convergent else UnifiedAssignAndSchedule()
        fp = schedule_key(
            region, machine, scheduler,
            check_values=check_values, verify=verify,
        )
        assert fp.key == oracle_schedule_key(
            region, machine, scheduler,
            check_values=check_values, verify=verify,
        )
        assert fp.permutation == oracle_permutation(region.ddg)

    @given(random_regions(max_nodes=8))
    @settings(max_examples=30, deadline=None)
    def test_no_state_carried_between_calls(self, region):
        """Mutating the machine or graph between calls changes nothing stale."""
        machine = ClusteredVLIW(2)
        scheduler = UnifiedAssignAndSchedule()
        before = schedule_key(region, machine, scheduler).key
        machine.latency_model.latencies[Opcode.FADD] += 1
        region.ddg.new_instruction(Opcode.FADD, [0])
        after = schedule_key(region, machine, scheduler).key
        assert after != before
        assert after == oracle_schedule_key(region, machine, scheduler)


# ----------------------------------------------------------------------
# The canonical-form memo
# ----------------------------------------------------------------------


def _fresh(ddg: DataDependenceGraph) -> Tuple[Tuple[int, ...], str]:
    """The canonical form computed without the memo."""
    return fp_mod._canonical_form(ddg)


def _two_sources(first: Tuple[int, Any], second: Tuple[int, Any]) -> DataDependenceGraph:
    """Two identical LIs feeding one ADD through explicit edges, added in
    the given ``(src, latency)`` order."""
    ddg = DataDependenceGraph()
    for uid in range(3):
        ddg.add_instruction(Instruction(uid=uid, opcode=Opcode.LI if uid < 2 else Opcode.ADD))
    for src, latency in (first, second):
        ddg.add_dependence(src, 2, latency=latency)
    return ddg


def _graph_lists(ddg: DataDependenceGraph) -> Tuple[List[Any], List[Any], List[Any]]:
    """Each instruction's ``(opcode value, home_cluster, bank, immediate,
    operands)`` and each uid's predecessor ``(src, kind, latency)`` and
    successor ``(dst, kind, latency)`` lists: one tuple per node and per
    edge end, read through the public API."""
    n = len(ddg)
    return (
        [(inst.opcode.value, inst.home_cluster, inst.bank, inst.immediate, inst.operands)
         for inst in ddg.instructions],
        [[(e.src, e.kind, e.latency) for e in ddg.predecessors(uid)] for uid in range(n)],
        [[(e.dst, e.kind, e.latency) for e in ddg.successors(uid)] for uid in range(n)],
    )


def _tuple_key(ddg: DataDependenceGraph) -> Optional[str]:
    """The canonical memo key as it was built before the column
    snapshots, :func:`_graph_lists` pickled whole: the reference for
    which graphs the column key must tell apart."""
    return content_digest(_graph_lists(ddg))


def _decode_key_columns(columns: List[List[Any]]) -> Tuple[List[Any], List[Any], List[Any]]:
    """Every instruction tuple and every uid's predecessor ``(src, kind,
    latency)`` and successor ``(dst, kind, latency)`` list, rebuilt from
    the columns the canonical memo key digests.

    The columns carry no per-uid lengths.  They need none: every edge is
    in its source's successor list and its destination's predecessor
    list, so a uid's out-degree is its count in the predecessor ``src``
    column and its in-degree its count in the successor ``dst`` column.
    """
    nodes, pred_src, pred_kind, pred_latency, succ_dst, succ_kind, succ_latency = columns
    n = len(nodes)

    def split(rows: List[Tuple[Any, ...]], degree: Counter) -> List[List[Tuple[Any, ...]]]:
        lists, start = [], 0
        for uid in range(n):
            lists.append(rows[start:start + degree[uid]])
            start += degree[uid]
        assert start == len(rows)
        return lists

    preds = split(list(zip(pred_src, pred_kind, pred_latency)), Counter(succ_dst))
    succs = split(list(zip(succ_dst, succ_kind, succ_latency)), Counter(pred_src))
    return nodes, preds, succs


def _typed(value: Any) -> Any:
    """``value`` with every atom paired with its type, so ``1``, ``1.0``,
    ``True`` and ``np.int64(1)`` all compare unequal."""
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(item) for item in value]
    return type(value), repr(value)


def _assert_columns_determine_graph(ddg: DataDependenceGraph) -> None:
    decoded = _decode_key_columns(fp_mod._key_columns(ddg))
    assert _typed(decoded) == _typed(_graph_lists(ddg))


def _rebuilt(
    ddg: DataDependenceGraph,
    relabel: Optional[List[int]] = None,
    edges: Optional[List[Any]] = None,
) -> DataDependenceGraph:
    """A copy of ``ddg`` with uid ``u`` renamed ``relabel[u]`` and its edges
    re-added in the order of ``edges`` (default: ``ddg.edges()``)."""
    n = len(ddg)
    relabel = relabel or list(range(n))
    old_of = {new: old for old, new in enumerate(relabel)}
    copy = DataDependenceGraph()
    for uid in range(n):
        inst = ddg.instruction(old_of[uid])
        copy.add_instruction(dataclasses.replace(
            inst, uid=uid, operands=tuple(relabel[op] for op in inst.operands),
        ))
    for edge in ddg.edges() if edges is None else edges:
        copy.add_dependence(relabel[edge.src], relabel[edge.dst], edge.latency, edge.kind)
    return copy


def _reordered(ddg: DataDependenceGraph) -> List[DataDependenceGraph]:
    """``ddg``'s edge set re-added in three other orders: all reversed;
    source by source from the last uid, which reorders predecessor lists
    alone; destination by destination from the last, which reorders
    successor lists alone."""
    n = len(ddg)
    return [
        _rebuilt(ddg, edges=list(reversed(list(ddg.edges())))),
        _rebuilt(ddg, edges=[e for uid in reversed(range(n)) for e in ddg.successors(uid)]),
        _rebuilt(ddg, edges=[e for uid in reversed(range(n)) for e in ddg.predecessors(uid)]),
    ]


def _wire_copy(ddg: DataDependenceGraph) -> Optional[DataDependenceGraph]:
    """``ddg`` through the serve wire's JSON, or None where the wire
    rejects it (it takes integer edge latencies only)."""
    document = json.loads(json.dumps(region_to_dict(Region("r", ddg))))
    try:
        return region_from_dict(document).ddg
    except WireError:
        return None


#: In-place edits of one instruction field: ``(field, new value)``, with
#: values that compare equal to common ones but pickle differently.
_NODE_EDITS = st.one_of(
    st.tuples(st.just("opcode"), st.sampled_from(_OPCODES)),
    st.tuples(st.just("home_cluster"),
              st.sampled_from([None, 0, 1, 0.0, True, np.int64(1), np.float64(0.0)])),
    st.tuples(st.just("bank"), st.sampled_from([None, 0, 2, 2.0, False])),
    st.tuples(st.just("immediate"), _IMMEDIATES),
    st.tuples(st.just("operands"), st.sampled_from([(), (0,), (0, 0)])),
)


def _edited(ddg: DataDependenceGraph, uid: int, field: str, value: Any) -> DataDependenceGraph:
    """A copy of ``ddg`` with instruction ``uid``'s ``field`` set in place."""
    copy = _rebuilt(ddg)
    setattr(copy.instruction(uid), field, value)
    return copy


def _swap_edge(ddg: DataDependenceGraph, position: int, kind: str, latency: Any) -> None:
    """Swap ``ddg``'s ``position``-th edge in place, in both adjacency
    lists, for one with ``kind`` and ``latency``, behind the API's back."""
    edge = list(ddg.edges())[position]
    swapped = dataclasses.replace(edge, kind=kind, latency=latency)
    for adjacency in (ddg._succ[edge.src], ddg._pred[edge.dst]):
        # By identity: an equal duplicate may sit elsewhere in the list.
        adjacency[next(i for i, e in enumerate(adjacency) if e is edge)] = swapped


def _edge_edited(ddg: DataDependenceGraph, position: int, kind: str, latency: Any):
    """A copy of ``ddg`` with its ``position``-th edge swapped in place, in
    both adjacency lists, for one with ``kind`` and ``latency``."""
    copy = _rebuilt(ddg)
    _swap_edge(copy, position, kind, latency)
    return copy


def _assert_separates_like_tuple_key(ddg: DataDependenceGraph, other: DataDependenceGraph):
    column_equal = fp_mod._canonical_key(ddg) == fp_mod._canonical_key(other)
    tuple_equal = _tuple_key(ddg) == _tuple_key(other)
    assert column_equal == tuple_equal


class TestCanonicalMemo:
    """Memoized canonical forms are the fresh ones, for the graph as it is now."""

    @given(random_regions(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_key_columns_determine_the_graph(self, region, numpy_homes):
        ddg = region.ddg
        if numpy_homes:
            for inst in ddg.instructions:
                if inst.home_cluster is not None:
                    inst.home_cluster = np.int64(inst.home_cluster)
        _assert_columns_determine_graph(ddg)

    def test_suite_key_columns_determine_the_graph(self):
        for spec, name, _, _ in GOLDEN_KEYS:
            _assert_columns_determine_graph(_suite_region(spec, name)[0].ddg)

    @given(random_regions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_column_key_separates_what_the_tuple_key_does(self, region, data):
        ddg = region.ddg
        n = len(ddg)
        others = [_rebuilt(ddg, relabel=list(reversed(range(n)))), *_reordered(ddg)]
        wired = _wire_copy(ddg)
        if wired is not None:
            others.append(wired)
        uid = data.draw(st.integers(min_value=0, max_value=n - 1))
        field, value = data.draw(_NODE_EDITS)
        if field == "operands":
            value = tuple(op for op in value if op < uid)
        others.append(_edited(ddg, uid, field, value))
        edges = ddg.edge_count()
        if edges:
            others.append(_edge_edited(
                ddg,
                data.draw(st.integers(min_value=0, max_value=edges - 1)),
                data.draw(st.sampled_from(["data", "mem", "order"])),
                data.draw(_LATENCIES),
            ))
        for other in others:
            _assert_separates_like_tuple_key(ddg, other)

    def test_suite_column_key_separates_what_the_tuple_key_does(self):
        for spec, name, _, _ in GOLDEN_KEYS:
            ddg = _suite_region(spec, name)[0].ddg
            n = len(ddg)
            others = [
                _rebuilt(ddg, relabel=list(reversed(range(n)))),
                *_reordered(ddg),
                _wire_copy(ddg),
                _edited(ddg, n - 1, "immediate", 2.0),
                _edge_edited(ddg, 0, "data", 1.0),
            ]
            for other in others:
                _assert_separates_like_tuple_key(ddg, other)

    @given(random_regions())
    @settings(max_examples=60, deadline=None)
    def test_memoized_equals_oracle_and_hits(self, region):
        form = canonical_form(region.ddg)
        assert form == _fresh(region.ddg)
        assert form[0] == oracle_permutation(region.ddg)
        assert _digest_text(form[1]) == oracle_ddg_fingerprint(region.ddg)
        assert canonical_form(region.ddg) is form  # served from the memo

    def test_in_place_edits_get_the_fresh_key(self):
        region, machine = _suite_region("vliw4", "fir")
        ddg = region.ddg
        ddg.new_instruction(Opcode.LI, immediate=2)
        seen = {schedule_key(region, machine, ConvergentScheduler()).key}

        def assert_fresh():
            fp = schedule_key(region, machine, ConvergentScheduler())
            assert fp.key == oracle_schedule_key(region, machine, ConvergentScheduler())
            assert canonical_form(ddg) == _fresh(ddg)
            assert fp.key not in seen
            seen.add(fp.key)

        ddg.instruction(3).home_cluster = 2
        assert_fresh()
        ddg.instruction(len(ddg) - 1).immediate = 2.0
        assert_fresh()
        edge = ddg.successors(0)[0]
        rebuilt = dataclasses.replace(edge, latency=edge.latency + 1)
        for adjacency in (ddg._succ[edge.src], ddg._pred[edge.dst]):
            adjacency[adjacency.index(edge)] = rebuilt
        assert_fresh()

    def test_adjacency_order_is_part_of_the_key(self):
        """Latencies ``1`` and ``1.0`` tie in the stable edge sort, so the
        order the edges were added in decides the text."""
        one_first = _two_sources((0, 1), (1, 1.0))
        float_first = _two_sources((1, 1.0), (0, 1))
        assert sorted(map(repr, one_first.edges())) == sorted(map(repr, float_first.edges()))
        for ddg in (one_first, float_first):
            assert canonical_form(ddg) == _fresh(ddg)
            assert canonical_permutation(ddg) == oracle_permutation(ddg)
            assert ddg_fingerprint(ddg) == oracle_ddg_fingerprint(ddg)
        assert canonical_form(one_first)[1] != canonical_form(float_first)[1]

    def test_numpy_scalar_types_keep_distinct_keys(self):
        graphs = []
        for home in (np.int64(0), np.float64(0.0)):
            ddg = DataDependenceGraph()
            ddg.new_instruction(Opcode.LOAD, home_cluster=home, bank=0)
            ddg.new_instruction(Opcode.ADD, [0])
            graphs.append(ddg)
        assert content_digest(np.int64(0)) != content_digest(np.float64(0.0))
        assert fp_mod._canonical_key(graphs[0]) != fp_mod._canonical_key(graphs[1])
        for ddg in graphs:
            assert canonical_form(ddg) == _fresh(ddg)
        assert canonical_form(graphs[0])[1] != canonical_form(graphs[1])[1]

    def test_unpicklable_content_is_computed_fresh(self):
        ddg = DataDependenceGraph()
        ddg.new_instruction(Opcode.LI, immediate=lambda: 0)
        assert content_digest(ddg.instruction(0).immediate) is None
        assert fp_mod._canonical_key(ddg) is None
        assert canonical_form(ddg) == _fresh(ddg)

    def test_memo_never_exceeds_its_capacity(self):
        memo = fp_mod._CANONICAL_MEMO
        assert memo.capacity == CANONICAL_MEMO_CAPACITY
        for immediate in range(CANONICAL_MEMO_CAPACITY + 16):
            ddg = DataDependenceGraph()
            ddg.new_instruction(Opcode.LI, immediate=immediate)
            canonical_form(ddg)
            assert len(memo) <= CANONICAL_MEMO_CAPACITY
        assert len(memo) == CANONICAL_MEMO_CAPACITY

    def test_threads_get_identical_keys(self):
        fp_mod._CANONICAL_MEMO.clear()
        cases = [(_suite_region(spec, name), key) for spec, name, key, _ in GOLDEN_KEYS]

        def keys(start):
            order = cases[start:] + cases[:start]
            found = {key: schedule_key(region, machine, ConvergentScheduler()).key
                     for (region, machine), key in order}
            return [found[key] for _, key in cases]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(keys, range(4), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert results == [[key for _, key in cases]] * 4


# ----------------------------------------------------------------------
# The stamped per-graph memo
# ----------------------------------------------------------------------

#: The ways a mutation sequence may write to a graph.
_WRITE_PATHS = st.sampled_from(
    ["add_instruction", "add_dependence", "setattr", "swap_edge", "reverse_adjacency",
     "private_write"]
)


def _node_edit(data: st.DataObject, uid: int) -> Tuple[str, Any]:
    """A ``_NODE_EDITS`` edit valid for instruction ``uid``: operands
    only name earlier uids."""
    field, value = data.draw(_NODE_EDITS)
    if field == "operands":
        value = tuple(op for op in value if op < uid)
    return field, value


def _write(ddg: DataDependenceGraph, path: str, data: st.DataObject) -> None:
    """Write to ``ddg`` once through ``path``, with drawn arguments."""
    n = len(ddg)
    uid = data.draw(st.integers(min_value=0, max_value=n - 1))
    if path == "add_instruction":
        operands = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2))
        ddg.add_instruction(Instruction(
            uid=n, opcode=data.draw(st.sampled_from(_OPCODES)), operands=operands,
            home_cluster=data.draw(st.sampled_from([None, 0, 1])),
            immediate=data.draw(_IMMEDIATES),
        ))
    elif path == "add_dependence" and n > 1:
        dst = data.draw(st.integers(min_value=1, max_value=n - 1))
        ddg.add_dependence(
            data.draw(st.integers(min_value=0, max_value=dst - 1)), dst,
            latency=data.draw(_LATENCIES),
            kind=data.draw(st.sampled_from(["data", "mem", "order"])),
        )
    elif path == "setattr":
        setattr(ddg.instruction(uid), *_node_edit(data, uid))
    elif path == "swap_edge" and ddg.edge_count():
        _swap_edge(
            ddg,
            data.draw(st.integers(min_value=0, max_value=ddg.edge_count() - 1)),
            data.draw(st.sampled_from(["data", "mem", "order"])),
            data.draw(_LATENCIES),
        )
    elif path == "reverse_adjacency":
        # One side only: an edge order the other side's lists do not see.
        sides = data.draw(st.sampled_from([ddg._pred, ddg._succ]))
        sides[uid].reverse()
    elif path == "private_write":
        # The instructions view stays stale until the next API mutation,
        # for the key's columns and the computation alike.
        field, value = _node_edit(data, uid)
        ddg._instructions[uid] = dataclasses.replace(ddg._instructions[uid], **{field: value})
        _assert_stamped_and_fresh(ddg)
        ddg.add_instruction(Instruction(uid=n, opcode=Opcode.LI))


def _assert_stamped_and_fresh(ddg: DataDependenceGraph) -> None:
    form = canonical_form(ddg)
    assert form == _fresh(ddg)
    assert canonical_form(ddg) is form  # the unchanged graph hits its stamp


class TestStampedMemo:
    """A graph's stamped form is served only while nothing it reads changed."""

    @given(random_regions(max_nodes=8), st.lists(_WRITE_PATHS, min_size=1, max_size=12),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_write_path_gets_the_fresh_form(self, region, paths, data):
        ddg = region.ddg
        _assert_stamped_and_fresh(ddg)
        for path in paths:
            _write(ddg, path, data)
            _assert_stamped_and_fresh(ddg)

    def test_an_unchanged_graph_reads_no_content(self, monkeypatch):
        region, _ = _suite_region("vliw4", "fir")
        form = canonical_form(region.ddg)

        def unread(*args):
            raise AssertionError("the stamp held, yet the columns were read")

        monkeypatch.setattr(fp_mod, "_key_columns", unread)
        assert canonical_form(region.ddg) is form

    def test_copies_get_equal_keys_and_entries_of_their_own(self):
        region, machine = _suite_region("raw4x4", "jacobi")
        key = schedule_key(region, machine, ConvergentScheduler()).key
        original = fp_mod._STAMPED[region.ddg]
        for copied in (pickle.loads(pickle.dumps(region)), deepcopy(region)):
            assert copied.ddg not in fp_mod._STAMPED
            assert schedule_key(copied, machine, ConvergentScheduler()).key == key
            stamp, form = fp_mod._STAMPED[copied.ddg]
            assert stamp[0] is copied.ddg.instructions
            assert stamp[0] is not original[0][0]
            assert form == original[1]

    def test_a_freed_graph_leaves_the_memo(self):
        gc.collect()
        before = len(fp_mod._STAMPED)
        ddg = DataDependenceGraph()
        ddg.new_instruction(Opcode.LI, immediate=1)
        canonical_form(ddg)
        assert len(fp_mod._STAMPED) == before + 1
        alive = weakref.ref(ddg)
        del ddg
        gc.collect()
        assert alive() is None
        assert len(fp_mod._STAMPED) == before

    def test_values_that_change_in_place_are_never_stamped(self):
        ddg = _two_sources((0, 1), (1, 1))
        add = ddg.instruction(2)
        add.operands = [0]
        canonical_form(ddg)
        assert ddg not in fp_mod._STAMPED
        add.operands.append(1)
        assert canonical_form(ddg) == _fresh(ddg)

    def test_construction_copies_and_unpickling_count_no_write(self):
        writes = instruction_writes()
        inst = Instruction(uid=3, opcode=Opcode.ADD, operands=[1, 2], home_cluster=1)
        copies = [
            dataclasses.replace(inst, uid=4),
            pickle.loads(pickle.dumps(inst)),
            deepcopy(inst),
            shallow_copy(inst),
        ]
        assert instruction_writes() == writes
        assert copies[1:] == [inst] * 3
        assert copies[0].uid == 4 and copies[0].operands == (1, 2)
        inst.name = "x"
        assert instruction_writes() != writes

    def test_threads_never_see_a_write_undone(self):
        """A write changes the count its own thread reads next, whatever
        other threads write in between (an increment by read-modify-write
        could store a stale count over it)."""
        instructions = [Instruction(uid=t, opcode=Opcode.LI) for t in range(4)]

        def write(inst):
            for value in range(3000):
                before = instruction_writes()
                inst.immediate = value
                assert instruction_writes() != before

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(write, instructions, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert [inst.immediate for inst in instructions] == [2999] * 4

    def test_instruction_checks_and_dataclass_behaviour_are_unchanged(self):
        with pytest.raises(ValueError, match="^instruction uid must be non-negative, got -1$"):
            Instruction(uid=-1, opcode=Opcode.ADD)
        with pytest.raises(ValueError, match="^instruction 5 cannot depend on itself$"):
            Instruction(uid=5, opcode=Opcode.ADD, operands=(2, 5))
        with pytest.raises(TypeError):
            Instruction(uid=0, opcode=Opcode.ADD, operands=3)
        assert [f.name for f in dataclasses.fields(Instruction)] == [
            "uid", "opcode", "operands", "home_cluster", "name", "bank", "immediate",
        ]
        inst = Instruction(2, Opcode.LI, (), None, "k", None, 1.5)
        assert inst == Instruction(uid=2, opcode=Opcode.LI, name="k", immediate=1.5)
        assert inst != dataclasses.replace(inst, immediate=2.5)
        assert Instruction.__hash__ is None


# ----------------------------------------------------------------------
# The machine-text memo
# ----------------------------------------------------------------------


def _oracle_machine_text(machine) -> str:
    return json.dumps(machine_payload(machine), sort_keys=True, default=str)


class _PenaltyVLIW(ClusteredVLIW):
    """A picklable machine class whose class-level memory fields a test
    changes, leaving ``ClusteredVLIW``'s alone."""


class TestMachineTextMemo:
    """Machine payload texts are memoized by content, never by object."""

    def test_live_latency_bump_gets_fresh_text_and_key(self):
        region, _ = _suite_region("vliw4", "fir")
        machine = ClusteredVLIW(4)
        text = machine_payload_text(machine)
        key = schedule_key(region, machine, ConvergentScheduler()).key
        machine.latency_model.latencies[Opcode.FADD] += 1
        bumped = machine_payload_text(machine)
        assert bumped != text
        assert bumped == _oracle_machine_text(machine)
        bumped_key = schedule_key(region, machine, ConvergentScheduler()).key
        assert bumped_key != key
        assert bumped_key == oracle_schedule_key(region, machine, ConvergentScheduler())

    def test_class_level_memory_fields_are_read_on_every_call(self):
        machine = _PenaltyVLIW(4)
        assert content_digest(machine) is not None  # keyed, not computed fresh
        text = machine_payload_text(machine)
        try:
            _PenaltyVLIW.remote_mem_penalty = 3
            assert machine_payload_text(machine) != text
            assert machine_payload_text(machine) == _oracle_machine_text(machine)
        finally:
            _PenaltyVLIW.remote_mem_penalty = ClusteredVLIW.remote_mem_penalty

    def test_equal_machines_share_one_entry(self):
        memo = fp_mod._MACHINE_MEMO
        memo.clear()
        text = machine_payload_text(RawMachine(4, 4))
        assert machine_payload_text(RawMachine(4, 4)) is text
        assert len(memo) == 1
        assert text == machine_spec_text("raw4x4")

    def test_unpicklable_machine_is_encoded_fresh(self):
        memo = fp_mod._MACHINE_MEMO
        memo.clear()
        machine = ClusteredVLIW(4)
        machine.hook = lambda: 0
        assert machine_payload_text(machine) == _oracle_machine_text(machine)
        assert len(memo) == 0

    def test_memo_never_exceeds_its_capacity(self):
        memo = fp_mod._MACHINE_MEMO
        assert memo.capacity == MACHINE_MEMO_CAPACITY
        for registers in range(1, MACHINE_MEMO_CAPACITY + 9):
            machine = ClusteredVLIW(2, registers=registers)
            assert machine_payload_text(machine) == _oracle_machine_text(machine)
            assert len(memo) <= MACHINE_MEMO_CAPACITY
        assert len(memo) == MACHINE_MEMO_CAPACITY

    def test_derived_tables_stay_out_of_the_key(self):
        """The payload never reads the feasibility tables, so machines that
        differ only there share one entry."""
        memo = fp_mod._MACHINE_MEMO
        memo.clear()
        machine, altered = ClusteredVLIW(4), ClusteredVLIW(4)
        altered.class_mask = ~altered.class_mask
        altered.class_clusters = {}
        altered.class_units = {}
        text = machine_payload_text(machine)
        assert machine_payload_text(altered) is text
        assert len(memo) == 1
        for each in (machine, altered):
            assert text == fp_mod._encode(machine_payload(each))
