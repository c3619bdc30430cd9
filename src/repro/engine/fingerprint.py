"""Canonical content fingerprints for the schedule cache.

A cache is only as trustworthy as its key.  The fingerprint of a
scheduling request must change whenever *anything* that can change the
resulting schedule changes — the dependence graph's structure, opcodes,
latencies, preplacement; the machine's clusters, functional units,
latency table, communication fabric; the scheduler's algorithm and
configuration (pass sequence, seed, iterations) — while staying stable
under incidental representation details such as the order edges were
inserted in or the uid labelling of an isomorphic graph.

The DDG part is computed in three steps:

1. every instruction gets a **downward hash** (its attribute signature
   plus the hashes of its full ancestor cone, operand order preserved)
   and an **upward hash** (signature plus descendant cone);
2. instructions are sorted by the combination of both hashes into a
   **canonical order** — a relabelling that two isomorphic graphs agree
   on whenever their hashes distinguish all nodes;
3. the graph is serialized **in canonical coordinates** (node
   signatures, operand references, and the sorted edge list) and
   digested with SHA-256.

Step 3 is what makes the scheme sound: two requests share a fingerprint
only when their canonical serializations are byte-identical, and equal
serializations *define* an attribute-preserving isomorphism between the
graphs.  An imperfect canonical order (hash ties broken by uid) can
only cause a spurious cache miss, never a wrong hit.

Every digest is SHA-256 over exactly the text ``json.dumps(payload,
sort_keys=True, default=str)`` produces for its payload, but the text
is spliced together from pre-encoded fragments rather than dumped per
payload (see :func:`canonical_form`).  ``tests/test_fingerprint_golden.py``
pins the keys of the suite programs and checks the spliced text against
a plain ``json.dumps`` oracle; a change to either requires bumping
:data:`FINGERPRINT_SCHEMA_VERSION`.

Steps 1–3 run once per distinct graph content: :func:`canonical_form`
memoizes its result under a digest of everything it reads, recomputed
from column snapshots of the live graph (:func:`_canonical_key`), so a
graph equal to one seen before costs one digest and a graph changed
since is canonicalized afresh.  In front of that sits a per-graph memo
that skips even the digest while a stamp read from the graph — its
``instructions`` tuple, the instruction write count and its edge
objects — proves that nothing the digest reads has changed (see
:func:`canonical_form` for why that holds and what bypasses it).  The
machine section is memoized under a :func:`content_digest`
(:func:`machine_payload_text`).

:data:`FINGERPRINT_FIELDS` is the audited schema: every field consumed
by the fingerprint, grouped by component.  ``scripts/
check_fingerprint_schema.py`` verifies the documentation in
``docs/engine.md`` covers each field.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import weakref
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, is_
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.ddg import DataDependenceGraph
from ..ir.instruction import DependenceEdge, Instruction, instruction_writes
from ..ir.opcode import Opcode
from ..ir.regions import Region
from ..machine import machine_from_spec
from ..machine.machine import Machine
from ..schedulers.base import Scheduler
from .lru import BoundedLRU

#: Bump on any incompatible change to the fingerprint computation; old
#: cache entries then become unreachable instead of wrong.
FINGERPRINT_SCHEMA_VERSION = 1

#: The audited fingerprint schema: component -> fields folded into the
#: digest.  ``scripts/check_fingerprint_schema.py`` checks that
#: ``docs/engine.md`` documents every one of these names.
FINGERPRINT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "ddg": (
        "opcode",
        "operands",
        "home_cluster",
        "bank",
        "immediate",
        "edge_kind",
        "edge_latency",
    ),
    "machine": (
        "machine_name",
        "machine_class",
        "n_clusters",
        "cluster_units",
        "cluster_registers",
        "opcode_latencies",
        "comm_latency",
        "comm_resources",
        "memory_affinity",
        "remote_mem_penalty",
    ),
    "scheduler": (
        "scheduler_name",
        "scheduler_class",
        "scheduler_config",
        "pass_sequence",
        "seed",
        "chain_members",
    ),
    "run": (
        "region_name",
        "check_values",
        "verify",
        "schema_version",
    ),
}


#: The one encoder every payload and atom goes through.  It is built with
#: exactly the options ``json.dumps(obj, sort_keys=True, default=str)``
#: builds a fresh encoder with on every call, so its text is the same.
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)
_encode = _ENCODER.encode


#: Canonical forms kept by :func:`canonical_form`'s content memo.  Each
#: is a few kilobytes of text (tens for the largest synthetic graphs).
CANONICAL_MEMO_CAPACITY = 1024

_CANONICAL_MEMO = BoundedLRU(CANONICAL_MEMO_CAPACITY)


def content_digest(*values: Any) -> Optional[str]:
    """SHA-256 hex digest of each ``pickle.dumps(value, 5)`` in turn, the key of a content memo.

    Pickle is type-exact: ``1``, ``1.0`` and ``True``, ``0.0`` and
    ``-0.0``, ``np.int64(0)`` and ``np.float64(0.0)`` all encode
    differently, and a pickle decodes back to one value, so equal
    digests mean equal values.  Its identity memo can only make *equal*
    values encode differently (when one shares an object another
    repeats), which costs a memo miss, never a wrong hit.  (``marshal``
    would not do: it writes numpy scalars as raw buffer bytes, so
    ``np.int64(0)`` and ``np.float64(0.0)`` collide, and its
    back-references follow reference counts, so one value encodes
    differently depending on what else is alive.)  Each pickle ends in
    its own ``STOP`` opcode, so the pickles of several values, digested
    one after another, still decode to one sequence of values.

    Args:
        values: The content to key, built from builtin or numpy values.

    Returns:
        The 64-hex-digit digest, or ``None`` when pickle cannot encode a
        value — the caller then computes its result without the memo.
    """
    digest = hashlib.sha256()
    try:
        for value in values:
            digest.update(pickle.dumps(value, 5))
    except (pickle.PicklingError, TypeError, AttributeError, ValueError):
        return None
    return digest.hexdigest()


def _digest_text(text: str) -> str:
    """SHA-256 hex digest of an already-encoded JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _object_text(members: Dict[str, str]) -> str:
    """JSON object text from pre-encoded member values.

    Members are emitted in sorted-key order with ``json.dumps``'s
    default separators, which is what ``sort_keys=True`` produces for
    the same dict of decoded values.
    """
    return "{" + ", ".join(
        _encode(name) + ": " + members[name] for name in sorted(members)
    ) + "}"


@dataclass(frozen=True)
class Fingerprint:
    """A schedule-cache key plus the canonical relabelling behind it.

    Attributes:
        key: SHA-256 hex digest over the full request payload.
        permutation: ``permutation[uid]`` is the canonical position of
            instruction ``uid`` — the coordinate system cache entries
            store their schedules in.
    """

    key: str
    permutation: Tuple[int, ...]

    def uid_of_position(self) -> List[int]:
        """Inverse permutation: canonical position -> region uid."""
        inverse = [0] * len(self.permutation)
        for uid, position in enumerate(self.permutation):
            inverse[position] = uid
        return inverse


# ----------------------------------------------------------------------
# DDG canonicalization
# ----------------------------------------------------------------------


def _atom_key(value: Any) -> Any:
    """Memo key under which equal keys always encode to equal JSON text.

    The bare value is not enough: ``1``, ``1.0`` and ``True`` (and
    ``0.0`` / ``-0.0``) compare and hash equal but serialize
    differently.
    """
    return None if value is None else (type(value), str(value))


def _signature_texts(ddg: DataDependenceGraph) -> List[str]:
    """JSON text of each instruction's attribute signature, by uid.

    The signature is ``[opcode, home_cluster, bank, immediate]`` — what
    the instruction is, never what it is called.  Each distinct
    signature is encoded once per call.
    """
    memo: Dict[Tuple[Any, ...], str] = {}
    texts = []
    for inst in ddg.instructions:
        home, bank, immediate = inst.home_cluster, inst.bank, inst.immediate
        key = (inst.opcode, _atom_key(home), _atom_key(bank), _atom_key(immediate))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _encode([inst.opcode.value, home, bank, immediate])
        texts.append(text)
    return texts


_SRC = attrgetter("src")
_DST = attrgetter("dst")


def _edge_labels(ddg: DataDependenceGraph) -> Dict[int, str]:
    """JSON text of each edge's ``[kind, latency]`` label, by edge ``id``.

    Each distinct label is encoded once per call; the hash inputs'
    ``[kind, latency, "<digest>"]`` entries and the edge list's
    ``[src, dst, kind, latency]`` rows are spliced around it.  The ids
    stay valid because the graph holds every edge for the whole call.
    """
    texts: Dict[Tuple[str, Any], str] = {}
    labels: Dict[int, str] = {}
    for edge in ddg.edges():
        key = (edge.kind, _atom_key(edge.latency))
        text = texts.get(key)
        if text is None:
            text = texts[key] = _encode([edge.kind, edge.latency])
        labels[id(edge)] = text
    return labels


def _edge_entries(
    edges: List[DependenceEdge],
    far: Callable[[DependenceEdge], int],
    hashes: List[str],
    labels: Dict[int, str],
) -> str:
    """``[kind, latency, "<hash>"]`` entries of one node's edges, sorted.

    ``hash`` is that of the edge's far endpoint (``far(edge)``).  The
    order is that of sorting ``(kind, latency, hash)`` tuples; the sort
    is stable, so equal tuples keep edge order.
    """
    if len(edges) > 1:
        edges = sorted(edges, key=lambda e: (e.kind, e.latency, hashes[far(e)]))
    return ", ".join(
        [labels[id(e)][:-1] + ', "' + hashes[far(e)] + '"]' for e in edges]
    )


#: One instruction's row of the node column.  ``_value_`` is the enum
#: member's stored value, read without ``Enum.value``'s Python-level
#: descriptor.
_NODE_ROW = attrgetter("opcode._value_", "home_cluster", "bank", "immediate", "operands")
_KIND = attrgetter("kind")
_LATENCY = attrgetter("latency")


#: One graph's stamp (see :func:`_stamp`): its ``instructions`` tuple,
#: the instruction write count and its two flat adjacency lists.
_Stamp = Tuple[Sequence[Instruction], int, List[DependenceEdge], List[DependenceEdge]]
_Form = Tuple[Tuple[int, ...], str]

#: :func:`canonical_form`'s per-graph memo: graph -> ``(stamp, form)``.
#: Weakly keyed, so a freed graph frees its entry; it lives in this
#: module only, so a pickled or copied graph never carries one.
_STAMPED: "weakref.WeakKeyDictionary[DataDependenceGraph, Tuple[_Stamp, _Form]]" = (
    weakref.WeakKeyDictionary()
)


def _stamp(ddg: DataDependenceGraph) -> _Stamp:
    """What proves ``ddg`` unchanged, read before any of its content.

    The ``instructions`` tuple object (a new one after every
    mutation through the graph's API), the process-wide count of
    instruction attribute writes
    (:func:`~repro.ir.instruction.instruction_writes`) and the two lists
    of :meth:`~repro.ir.ddg.DataDependenceGraph.flat_adjacency`.  The
    stamp holds its tuple and edges alive, so no other object can take
    their identities while it is stored.
    """
    return (ddg.instructions, instruction_writes(), *ddg.flat_adjacency())


def _key_columns(ddg: DataDependenceGraph, stamp: Optional[_Stamp] = None) -> List[List[Any]]:
    """The columns :func:`_canonical_key` digests, read through ``stamp``.

    ``stamp`` is a :func:`_stamp` of ``ddg`` just taken (``None`` takes
    one): the columns are read from its ``instructions`` tuple and flat
    adjacency lists, so they are exactly what the stamp vouches for.

    First the node column: each instruction's ``(opcode value,
    home_cluster, bank, immediate, operands)`` by uid.  Then the
    predecessor lists flattened in uid order as ``src``, ``kind`` and
    ``latency`` columns, and the successor lists the same way as
    ``dst``, ``kind`` and ``latency`` columns.  Every column is read
    from the live graph by a C-level ``map`` over
    :meth:`~repro.ir.ddg.DataDependenceGraph.flat_adjacency`, with no
    tuple per edge.

    The columns determine every uid's lists although they carry no
    per-uid lengths: every edge sits in its source's successor list and
    its destination's predecessor list, so ``uid``'s out-degree is its
    count in the predecessor ``src`` column and its in-degree its count
    in the successor ``dst`` column; those counts cut each flat column
    back into its per-uid lists.
    """
    instructions, _, in_edges, out_edges = stamp or _stamp(ddg)
    return [list(map(_NODE_ROW, instructions))] + [
        list(map(field, edges))
        for edges, far in ((in_edges, _SRC), (out_edges, _DST))
        for field in (far, _KIND, _LATENCY)
    ]


def _canonical_key(ddg: DataDependenceGraph) -> Optional[str]:
    """The content digest of everything :func:`_canonical_form` reads.

    That is each instruction's ``(opcode, home_cluster, bank,
    immediate, operands)`` and each uid's predecessor ``(src, kind,
    latency)`` and successor ``(dst, kind, latency)`` lists in adjacency
    order, as the columns of :func:`_key_columns`.  The order is part of
    the key because the text depends on it: the topological order
    follows the successor lists, and the stable sorts of
    :func:`_edge_entries` and of the edge rows keep adjacency order
    among ties such as latencies ``1`` and ``1.0``.

    The columns are digested one after another by
    :func:`content_digest`, so equal keys mean equal columns.  ``None``
    when pickle cannot encode a column.
    """
    return content_digest(*_key_columns(ddg))


def _same_edges(old: List[DependenceEdge], new: List[DependenceEdge]) -> bool:
    """True when ``new`` holds the very edge objects of ``old``, in order."""
    return len(old) == len(new) and all(map(is_, old, new))


def _stamp_holds(old: _Stamp, new: _Stamp) -> bool:
    """True when nothing :func:`_key_columns` reads changed between two stamps."""
    return (
        old[0] is new[0]
        and old[1] == new[1]
        and _same_edges(old[2], new[2])
        and _same_edges(old[3], new[3])
    )


def _hashable(columns: List[List[Any]]) -> bool:
    """True when every value in ``columns`` hashes.

    The builtin and numpy values a graph holds hash exactly when they
    cannot change in place (a list or an array set as an attribute does
    not), and only such content may be stamped: the stamp sees writes to
    an instruction or an adjacency list, not edits inside a value.
    """
    try:
        for column in columns:
            hash(tuple(column))
    except TypeError:
        return False
    return True


def canonical_form(ddg: DataDependenceGraph) -> _Form:
    """The canonical permutation and the canonical DDG section's JSON text.

    This is what :func:`schedule_key` derives from the graph; a caller
    that keys the same unchanged graph many times can compute it once
    and hand it over as ``schedule_key(..., canonical=...)``.

    Two memos sit in front of the computation (:func:`_canonical_form`):

    * a **stamped per-graph memo** (``_STAMPED``), which returns the
      form stored for this graph object when its :func:`_stamp` still
      holds: the same ``instructions`` tuple (``is``), an equal
      instruction write count, and both flat adjacency lists equal in
      length and holding the same edge objects in order.  That covers
      exactly what :func:`_key_columns` reads.  ``DependenceEdge`` is
      frozen, so the same edge object means the same content.  Any
      adjacency list edit — through the API or by swapping or
      reordering elements in place — changes an element's identity,
      the order or the length.  Every instruction attribute write bumps the count.  A
      write into the private ``_instructions`` list leaves the
      ``instructions`` view stale, so the columns do not see it either,
      until the next mutation through the API replaces the view.  On a
      mismatch the columns are read through the new stamp — its tuple
      and edge lists, after its write count — and the stamp is stored
      only when every column value hashes (see :func:`_hashable`).  What it cannot see:
      ``object.__setattr__`` on an edge or an instruction, writes into
      an instruction's ``__dict__``, and an in-place change inside a
      hashable attribute value.  The memo is weakly keyed and never
      pickled: a copied or unpickled graph is a new key, and a freed
      graph frees its entry;
    * a **content memo** (``_CANONICAL_MEMO``), reached on any stamp
      mismatch, keyed by a digest of everything the computation reads
      (:func:`_canonical_key`), recomputed on every call, so equal
      graphs share one form and a graph edited in place gets its fresh
      text.

    Either way the text is byte for byte what the computation gives.
    (The machine payload text has a content memo of its own,
    :func:`machine_payload_text`; the scheduler payload is rebuilt on
    every call.)
    """
    stamp = _stamp(ddg)
    entry = _STAMPED.get(ddg)
    if entry is not None and _stamp_holds(entry[0], stamp):
        return entry[1]
    columns = _key_columns(ddg, stamp)
    key = content_digest(*columns)
    form = None if key is None else _CANONICAL_MEMO.get(key)
    if form is None:
        form = _canonical_form(ddg)
        if key is not None:
            _CANONICAL_MEMO[key] = form
    if _hashable(columns):
        _STAMPED[ddg] = (stamp, form)
    return form


def _canonical_form(ddg: DataDependenceGraph) -> Tuple[Tuple[int, ...], str]:
    """:func:`canonical_form` computed afresh.

    Every instruction gets a downward hash over ``["d", signature,
    sorted in-edges, operands]`` (in-edges carry the producers'
    downward hashes, operands list them in operand order) and an upward
    hash over ``["u", signature, sorted out-edges]``; the combined hash
    ``[down, up]`` orders the nodes.  Each hash input is spliced from
    pre-encoded fragments — hex digests need no escaping, so
    ``'"' + h + '"'`` is their JSON.  Fragments are memoized within the
    call only.
    """
    n = len(ddg)
    instructions = ddg.instructions
    signatures = _signature_texts(ddg)
    labels = _edge_labels(ddg)
    topo = ddg.topological_order()
    down: List[str] = [""] * n
    for uid in topo:
        preds = _edge_entries(ddg.predecessors(uid), _SRC, down, labels)
        operands = ", ".join(['"' + down[op] + '"' for op in instructions[uid].operands])
        text = '["d", ' + signatures[uid] + ", [" + preds + "], [" + operands + "]]"
        down[uid] = _digest_text(text)
    up: List[str] = [""] * n
    for uid in reversed(topo):
        succs = _edge_entries(ddg.successors(uid), _DST, up, labels)
        text = '["u", ' + signatures[uid] + ", [" + succs + "]]"
        up[uid] = _digest_text(text)
    combined = [_digest_text('["' + down[uid] + '", "' + up[uid] + '"]') for uid in range(n)]
    order = sorted(range(n), key=lambda uid: (combined[uid], uid))
    perm = [0] * n
    for position, uid in enumerate(order):
        perm[uid] = position
    # Canonical positions are plain ints, whose str() is their JSON.
    nodes = ", ".join(
        "[" + signatures[uid] + ", ["
        + ", ".join([str(perm[op]) for op in instructions[uid].operands]) + "]]"
        for uid in order
    )
    rows = sorted(ddg.edges(), key=lambda e: (perm[e.src], perm[e.dst], e.kind, e.latency))
    edges = ", ".join(
        "[" + str(perm[e.src]) + ", " + str(perm[e.dst]) + ", " + labels[id(e)][1:]
        for e in rows
    )
    text = _object_text({"nodes": "[" + nodes + "]", "edges": "[" + edges + "]"})
    return tuple(perm), text


def canonical_permutation(ddg: DataDependenceGraph) -> Tuple[int, ...]:
    """Map each uid to its canonical position.

    Computes full-depth structural hashes in both directions (ancestor
    cone with operand order, descendant cone) and sorts instructions by
    the combined hash.  Ties — nodes the hashes cannot distinguish —
    fall back to uid order, which at worst costs a cache miss for an
    exotic relabelling, never a wrong hit (see module docstring).

    Args:
        ddg: The graph to canonicalize (must be acyclic).

    Returns:
        ``perm`` with ``perm[uid]`` the canonical position of ``uid``.
    """
    return canonical_form(ddg)[0]


def ddg_fingerprint(ddg: DataDependenceGraph) -> str:
    """Digest of the canonical graph serialization alone.

    The serialization is ``{"edges": ..., "nodes": ...}``: ``nodes``
    lists ``[signature, operands]`` in canonical order (operands as
    canonical positions, order preserved) and ``edges`` the sorted
    ``[src, dst, kind, latency]`` rows in canonical coordinates.  Names
    are deliberately excluded — they do not affect any scheduler's
    output (the convergent scheduler's per-region seed derives from the
    *region* name, which is keyed separately).
    """
    return _digest_text(canonical_form(ddg)[1])


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------


def machine_payload(machine: Machine) -> Dict[str, Any]:
    """Everything about a machine that can change a schedule.

    Covers identity (``machine_name``, ``machine_class``), the spatial
    layout (``n_clusters``, per-cluster ``cluster_units`` and
    ``cluster_registers``), the ``opcode_latencies`` table, the full
    ``comm_latency`` / ``comm_resources`` matrices, and the memory
    model (``memory_affinity``, ``remote_mem_penalty``).

    Args:
        machine: The machine model to serialize.

    Returns:
        A JSON-safe dict suitable for digesting.
    """
    n = machine.n_clusters
    latencies = {}
    for opcode in Opcode:
        try:
            latencies[opcode.value] = machine.latency(opcode)
        except Exception:  # pragma: no cover - partial latency models
            latencies[opcode.value] = None
    return {
        "machine_name": machine.name,
        "machine_class": type(machine).__name__,
        "n_clusters": n,
        "cluster_units": [
            [
                [unit.name, sorted(c.value for c in unit.classes), unit.pipelined]
                for unit in cluster.units
            ]
            for cluster in machine.clusters
        ],
        "cluster_registers": [cluster.registers for cluster in machine.clusters],
        "opcode_latencies": latencies,
        "comm_latency": [
            [machine.comm_latency(src, dst) for dst in range(n)] for src in range(n)
        ],
        "comm_resources": [
            [
                [list(resource) for resource in machine.comm_resources(src, dst)]
                for dst in range(n)
            ]
            for src in range(n)
        ],
        "memory_affinity": machine.memory_affinity,
        "remote_mem_penalty": machine.remote_mem_penalty,
    }


@lru_cache(maxsize=64)
def machine_spec_text(spec: str) -> str:
    """The encoded :func:`machine_payload` of the machine ``spec`` names.

    Memoized by spec string: :func:`~repro.machine.machine_from_spec`
    builds a fresh machine from constants alone, so the payload is a
    pure function of the spec.  Never memoize it on a machine instance
    instead — machines are mutable (see :func:`canonical_form`).

    Args:
        spec: A machine spec string (``vliw4``, ``raw4x4``, ...).

    Returns:
        The payload's JSON text, as :func:`schedule_key` embeds it.

    Raises:
        ValueError: When the spec names no machine.
    """
    return _encode(machine_payload(machine_from_spec(spec)))


#: Machine payload texts kept by :func:`machine_payload_text`'s content
#: memo.  A process sees a handful of machines; raw4x4's text is ~21 KB.
MACHINE_MEMO_CAPACITY = 64

_MACHINE_MEMO = BoundedLRU(MACHINE_MEMO_CAPACITY)


#: Machine attributes :func:`machine_payload` never reads: the feasibility
#: tables ``Machine.__init__`` derives from the clusters, left out of the
#: memo key.
_DERIVED_MACHINE_ATTRS = frozenset({"class_mask", "class_clusters", "class_units"})


def machine_payload_text(machine: Machine) -> str:
    """The encoded :func:`machine_payload` of ``machine``, memoized by content.

    The memo key is the :func:`content_digest` of the machine's class,
    its instance attributes but the derived feasibility tables
    (``class_mask``, ``class_clusters``, ``class_units``, which the
    payload never reads), and the two class-level memory fields the
    payload reads (``memory_affinity``, ``remote_mem_penalty``),
    recomputed on every call, so a machine changed in place — a bumped
    latency — gets fresh text, and equal machines share one entry.  A
    machine pickle cannot encode is encoded afresh every time.

    Args:
        machine: The machine model to serialize.

    Returns:
        The payload's JSON text, as :func:`schedule_key` embeds it.
    """
    state = {
        name: value for name, value in vars(machine).items()
        if name not in _DERIVED_MACHINE_ATTRS
    }
    key = content_digest(
        (type(machine), state, machine.memory_affinity, machine.remote_mem_penalty)
    )
    text = None if key is None else _MACHINE_MEMO.get(key)
    if text is None:
        text = _encode(machine_payload(machine))
        if key is not None:
            _MACHINE_MEMO[key] = text
    return text


# ----------------------------------------------------------------------
# Scheduler fingerprint
# ----------------------------------------------------------------------

#: Instance attributes never folded into a scheduler fingerprint:
#: bookkeeping about the *previous* run, not configuration.
_EXCLUDED_ATTR_PREFIXES = ("last", "_last")
_EXCLUDED_ATTRS = frozenset({"schedulers"})

_SIMPLE_TYPES = (str, int, float, bool, type(None))


def _simple_config(obj: Any) -> Dict[str, Any]:
    """JSON-safe subset of an object's instance attributes.

    Scalars and flat sequences of scalars are kept verbatim; anything
    richer is reduced to its class name so the fingerprint stays
    deterministic (no ``repr`` memory addresses).
    """
    config: Dict[str, Any] = {}
    for key in sorted(vars(obj)):
        if key.startswith(_EXCLUDED_ATTR_PREFIXES) or key in _EXCLUDED_ATTRS:
            continue
        value = vars(obj)[key]
        if isinstance(value, _SIMPLE_TYPES):
            config[key] = value
        elif isinstance(value, (list, tuple)) and all(
            isinstance(v, _SIMPLE_TYPES) for v in value
        ):
            config[key] = list(value)
        else:
            config[key] = f"<{type(value).__name__}>"
    return config


def _pass_descriptor(item: Any) -> Any:
    """Stable description of one pass-sequence element (name or pass)."""
    if isinstance(item, str):
        return item
    name = getattr(item, "name", type(item).__name__)
    return [type(item).__name__, name, _simple_config(item)]


def scheduler_payload(scheduler: Scheduler) -> Dict[str, Any]:
    """Everything about a scheduler that can change its output.

    Always includes ``scheduler_name``, ``scheduler_class``, and the
    scalar ``scheduler_config`` (which carries ``seed`` where the
    scheduler has one).  The convergent scheduler additionally records
    its resolved ``pass_sequence`` spec; a fallback chain records the
    payloads of its ``chain_members`` recursively.

    Args:
        scheduler: The scheduler to serialize.

    Returns:
        A JSON-safe dict suitable for digesting.
    """
    payload: Dict[str, Any] = {
        "scheduler_name": scheduler.name,
        "scheduler_class": type(scheduler).__name__,
        "scheduler_config": _simple_config(scheduler),
    }
    spec = getattr(scheduler, "_passes_spec", None)
    if spec is not None:
        payload["pass_sequence"] = [_pass_descriptor(item) for item in spec]
    elif hasattr(scheduler, "_passes_spec"):
        # The published per-machine default; the machine payload already
        # distinguishes which sequence that resolves to.
        payload["pass_sequence"] = "default"
    members = getattr(scheduler, "schedulers", None)
    if members is not None:
        payload["chain_members"] = [scheduler_payload(m) for m in members]
    return payload


# ----------------------------------------------------------------------
# The composite request key
# ----------------------------------------------------------------------


def schedule_key(
    region: Region,
    machine: Machine,
    scheduler: Scheduler,
    check_values: bool = True,
    verify: bool = False,
    *,
    canonical: Optional[Tuple[Tuple[int, ...], str]] = None,
    machine_text: Optional[str] = None,
) -> Fingerprint:
    """Fingerprint one scheduling request end to end.

    The composite payload is the canonical DDG, the machine payload,
    the scheduler payload, the ``region_name`` (the convergent
    scheduler derives its per-region noise stream from it), the
    ``check_values`` / ``verify`` harness flags, and the
    ``schema_version``.

    Args:
        region: The region being scheduled.
        machine: Target machine model.
        scheduler: The scheduler that would produce the schedule.
        check_values: Whether the harness will replay dataflow.
        verify: Whether the harness will run the static verifier.
        canonical: ``canonical_form(region.ddg)`` computed earlier for
            this graph, unchanged since; ``None`` computes it now.
        machine_text: The encoded ``machine_payload(machine)``, e.g.
            :func:`machine_spec_text` of the spec ``machine`` was built
            from; ``None`` takes it from :func:`machine_payload_text`.

    Returns:
        The :class:`Fingerprint` (key + canonical permutation).
    """
    if canonical is None:
        canonical = canonical_form(region.ddg)
    if machine_text is None:
        machine_text = machine_payload_text(machine)
    permutation, ddg_text = canonical
    members = {
        "schema_version": _encode(FINGERPRINT_SCHEMA_VERSION),
        "ddg": ddg_text,
        "machine": machine_text,
        "scheduler": _encode(scheduler_payload(scheduler)),
        "region_name": _encode(region.name),
        "check_values": _encode(bool(check_values)),
        "verify": _encode(bool(verify)),
    }
    return Fingerprint(key=_digest_text(_object_text(members)), permutation=permutation)
