"""Wire schema for the compile service.

The ``POST /compile`` body is a self-describing JSON document carrying
a whole :class:`~repro.ir.regions.Program`, a machine spec string, and a
scheduler configuration.  Each region's dependence graph travels as
columns (wire schema 2): ``instructions`` is an object of parallel
lists indexed by uid (:data:`INSTRUCTION_COLUMNS`) and ``edges`` one of
parallel lists in :func:`_edge_emission_order`, the order that rebuilds
every adjacency list exactly (:data:`EDGE_COLUMNS`) — plain JSON, no
client-side pickling.  There is one format: a body of any other schema,
the row-shaped schema 1 included, is a structured 400 at
``request.schema``.  This module is the single source of truth
for that format: serializers used by clients (:func:`program_to_dict`,
:func:`compile_request`), strict validating deserializers used by the
server (:func:`parse_request`), and the request fingerprint
(:func:`request_key`) built from the engine's canonical per-region
:func:`~repro.engine.fingerprint.schedule_key` — so the server's
request hashing, in-flight deduplication, and schedule-cache addressing
all share one relabelling-invariant notion of identity.

Every validation failure raises :class:`WireError` with a JSON-path
``field`` naming the column and index (``regions[0].edges.dst[7]``);
the server maps it to a structured HTTP 400.  A request that
parses cleanly round-trips: ``program_from_dict(program_to_dict(p))``
rebuilds an equivalent program whose per-region fingerprints are
identical to the original's (pinned by ``tests/test_serve.py``).

:func:`parse_request` resolves each region document through a region
memo keyed by a content digest of the decoded document, so a server that
sees the same region in many bodies parses and canonicalizes it once;
the keys are the same as without the memo.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.fingerprint import (
    Fingerprint,
    canonical_form,
    content_digest,
    machine_spec_text,
    schedule_key,
)
from ..ir.ddg import DataDependenceGraph, GraphError
from ..ir.instruction import Instruction
from ..ir.opcode import Opcode
from ..ir.regions import Program, Region, RegionKind
from ..machine import Machine, machine_from_spec
from ..schedulers.base import Scheduler

#: Bump on any incompatible change to the request/response JSON shape;
#: the server rejects other versions with a structured 400.
WIRE_SCHEMA_VERSION = 2

#: ``kind`` discriminator of a compile request document.
REQUEST_KIND = "compile_request"

#: ``kind`` discriminator of a compile response document.
RESPONSE_KIND = "compile_response"

#: Hard shape limits: a request exceeding them is a 400, not an OOM.
MAX_REGIONS = 256
MAX_INSTRUCTIONS = 100_000
MAX_TRIP_COUNT = 10**9


class WireError(ValueError):
    """A malformed wire document, pinpointed to one field.

    Attributes:
        field: JSON-path-style location of the offending value, e.g.
            ``"regions[2].edges[7]"``.
    """

    def __init__(self, field: str, message: str) -> None:
        """Record the field path and the human-readable message.

        Args:
            field: JSON-path of the offending value.
            message: What is wrong with it.
        """
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def to_dict(self) -> Dict[str, str]:
        """The structured 400 payload body for this error."""
        return {"type": "bad_request", "field": self.field,
                "message": self.message}


def _expect(
    data: Mapping[str, Any],
    key: str,
    kinds: tuple,
    field: str,
    required: bool = True,
    default: Any = None,
) -> Any:
    """Fetch ``data[key]`` and type-check it, or raise :class:`WireError`.

    Args:
        data: The containing JSON object.
        key: Key to fetch.
        kinds: Acceptable Python types (``bool`` is never accepted for
            numeric kinds — JSON ``true`` must not pass as ``1``).
        field: JSON-path of ``data`` for error reporting.
        required: Whether a missing key is an error.
        default: Returned when the key is absent and not required.

    Returns:
        The validated value (or ``default``).
    """
    if key not in data:
        if required:
            raise WireError(f"{field}.{key}", "missing required field")
        return default
    value = data[key]
    problem = _type_error(value, kinds)
    if problem is not None:
        raise WireError(f"{field}.{key}", problem)
    return value


def _type_error(value: Any, kinds: tuple) -> Optional[str]:
    """Why ``value`` is not one of ``kinds``, or ``None`` when it is.

    ``bool`` is never accepted for numeric kinds unless listed — JSON
    ``true`` must not pass as ``1``.
    """
    if isinstance(value, bool) and bool not in kinds:
        return "expected a number, got a boolean"
    if not isinstance(value, kinds):
        expected = "/".join(k.__name__ for k in kinds)
        return f"expected {expected}, got {type(value).__name__}"
    return None


# ----------------------------------------------------------------------
# Program <-> JSON
# ----------------------------------------------------------------------


#: The instruction columns of a region document, each one entry per
#: instruction in uid order.  ``opcode`` is required and fixes the
#: instruction count; an absent column gives every instruction its
#: default (no operands, not preplaced, no name, no bank, no immediate).
INSTRUCTION_COLUMNS = ("opcode", "operands", "home_cluster", "name", "bank", "immediate")

#: The edge columns of a region document, each one entry per edge in
#: :func:`_edge_emission_order`; all four are required when ``edges`` is.
EDGE_COLUMNS = ("src", "dst", "latency", "kind")

#: Opcode by wire name.
_OPCODES = {opcode.value: opcode for opcode in Opcode}

#: Each edge kind, mapped to the literal the in-process builders use, so
#: a decoded graph shares their string objects (see :func:`region_from_dict`).
_EDGE_KINDS = {kind: kind for kind in ("data", "mem", "order")}


def _edge_emission_order(ddg: DataDependenceGraph) -> List[Any]:
    """Order edges so sequential re-adding rebuilds adjacency exactly.

    ``add_dependence`` appends to both the source's successor list and
    the destination's predecessor list, and schedulers tie-break on
    those list orders — so a round-tripped graph must reproduce *both*.
    This is a greedy merge (Kahn's algorithm): an edge is emitted once
    it sits at the front of its source's successor sequence *and* its
    destination's predecessor sequence.  The original construction
    history witnesses that such an interleaving exists, so the merge
    never stalls on a well-formed graph.

    Args:
        ddg: The graph to linearize.

    Returns:
        Every edge exactly once, in a reconstruction-safe order.
    """
    n = len(ddg)
    succ = [ddg.successors(uid) for uid in range(n)]
    pred = [ddg.predecessors(uid) for uid in range(n)]
    succ_pos = [0] * n
    pred_pos = [0] * n
    remaining = sum(len(out) for out in succ)
    emitted: List[Any] = []
    while remaining:
        progressed = False
        for src in range(n):
            out = succ[src]
            while succ_pos[src] < len(out):
                edge = out[succ_pos[src]]
                incoming = pred[edge.dst]
                if incoming[pred_pos[edge.dst]] is not edge:
                    break
                emitted.append(edge)
                succ_pos[src] += 1
                pred_pos[edge.dst] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - unreachable for real DDGs
            for src in range(n):
                emitted.extend(succ[src][succ_pos[src]:])
            break
    return emitted


def region_to_dict(region: Region) -> Dict[str, Any]:
    """Serialize one region with its graph as instruction and edge columns.

    ``instructions`` holds one list per :data:`INSTRUCTION_COLUMNS`
    entry, indexed by uid; ``edges`` one list per :data:`EDGE_COLUMNS`
    entry, every edge (the operand-derived data edges included) in
    :func:`_edge_emission_order`.  Deserialization re-adds the edges in
    that order with :meth:`~repro.ir.ddg.DataDependenceGraph.
    add_dependence` and so reproduces the exact adjacency-list orders —
    schedulers tie-break on them, and served schedules must be
    byte-identical to serial ones.

    Args:
        region: The region to serialize.

    Returns:
        The JSON-safe region document.
    """
    ddg = region.ddg
    instructions = ddg.instructions
    edges = _edge_emission_order(ddg)
    return {
        "name": region.name,
        "kind": region.kind.value,
        "trip_count": region.trip_count,
        "ddg_name": ddg.name,
        "instructions": {
            "opcode": [inst.opcode.value for inst in instructions],
            "operands": [list(inst.operands) for inst in instructions],
            **{column: [getattr(inst, column) for inst in instructions]
               for column in INSTRUCTION_COLUMNS[2:]},
        },
        "edges": {
            column: [getattr(edge, column) for edge in edges]
            for column in EDGE_COLUMNS
        },
    }


def program_to_dict(program: Program) -> Dict[str, Any]:
    """Serialize a whole program (name + region documents)."""
    return {
        "name": program.name,
        "regions": [region_to_dict(region) for region in program.regions],
    }


def _column(
    table: Mapping[str, Any],
    key: str,
    length: int,
    field: str,
    required: bool = False,
    default: Any = None,
) -> List[Any]:
    """Fetch column ``table[key]`` and check it holds ``length`` entries.

    Args:
        table: The JSON object holding the columns.
        key: Column name.
        length: Entries the column must hold.
        field: JSON-path of ``table`` for error reporting.
        required: Whether a missing column is an error.
        default: Every entry of an absent, optional column.

    Returns:
        The column (or ``length`` copies of ``default``).
    """
    if key not in table:
        if required:
            raise WireError(f"{field}.{key}", "missing required column")
        return [default] * length
    column = table[key]
    if not isinstance(column, list):
        raise WireError(f"{field}.{key}",
                        f"column must be a list, got {type(column).__name__}")
    if len(column) != length:
        # Name the first position where the column and the count disagree.
        raise WireError(f"{field}.{key}[{min(len(column), length)}]",
                        f"column has {len(column)} entries, expected {length}")
    return column


def _check_entries(
    column: List[Any], kinds: tuple, field: str, non_negative: bool = False
) -> None:
    """Raise :class:`WireError` at the first entry of ``column`` not of ``kinds``.

    Args:
        column: The column to check.
        kinds: Acceptable types, as for :func:`_expect`.
        field: JSON-path of ``column``; an error names ``field[index]``.
        non_negative: Also reject numbers below zero.
    """
    for index, value in enumerate(column):
        problem = _type_error(value, kinds)
        if problem is None and non_negative and value is not None and value < 0:
            problem = "must be non-negative"
        if problem is not None:
            raise WireError(f"{field}[{index}]", problem)


def _check_uids(column: List[Any], count: int, field: str) -> None:
    """Raise :class:`WireError` at the first entry of ``column`` that is not
    a uid in ``[0, count)``; an error names ``field[index]``."""
    for index, uid in enumerate(column):
        if isinstance(uid, bool) or not isinstance(uid, int):
            raise WireError(f"{field}[{index}]", "uid must be an integer")
        if not 0 <= uid < count:
            raise WireError(f"{field}[{index}]", f"uid {uid} out of range")


def _instructions_from_columns(
    data: Mapping[str, Any], field: str
) -> List[Instruction]:
    """Validate the instruction columns and rebuild every instruction.

    Args:
        data: The ``instructions`` JSON object.
        field: JSON-path of ``data``.

    Returns:
        The instructions, in uid order.
    """
    opcode_names = _expect(data, "opcode", (list,), field)
    n = len(opcode_names)
    if not n:
        raise WireError(field, "region must have at least one instruction")
    if n > MAX_INSTRUCTIONS:
        raise WireError(field, f"too many instructions (max {MAX_INSTRUCTIONS})")
    _check_entries(opcode_names, (str,), f"{field}.opcode")
    for uid, opcode_name in enumerate(opcode_names):
        if opcode_name not in _OPCODES:
            raise WireError(f"{field}.opcode[{uid}]",
                            f"unknown opcode {opcode_name!r}")
    operands = _column(data, "operands", n, field, default=[])
    _check_entries(operands, (list,), f"{field}.operands")
    for uid, uids in enumerate(operands):
        _check_uids(uids, n, f"{field}.operands[{uid}]")
    homes = _column(data, "home_cluster", n, field)
    _check_entries(homes, (int, type(None)), f"{field}.home_cluster",
                   non_negative=True)
    names = _column(data, "name", n, field, default="")
    _check_entries(names, (str,), f"{field}.name")
    banks = _column(data, "bank", n, field)
    _check_entries(banks, (int, type(None)), f"{field}.bank")
    # Kept as the JSON number type it arrived as: the DDG fingerprint
    # tells ``2`` from ``2.0``, so a round trip must not turn one into the other.
    immediates = _column(data, "immediate", n, field)
    _check_entries(immediates, (int, float, type(None)), f"{field}.immediate")
    instructions = []
    for uid, row in enumerate(
        zip(opcode_names, operands, homes, names, banks, immediates)
    ):
        opcode_name, uids, home, name, bank, immediate = row
        try:
            instructions.append(Instruction(
                uid=uid,
                opcode=_OPCODES[opcode_name],
                operands=tuple(uids),
                home_cluster=home,
                name=name,
                bank=bank,
                immediate=immediate,
            ))
        except ValueError as exc:
            raise WireError(f"{field}.operands[{uid}]", str(exc))
    return instructions


def region_from_dict(data: Any, field: str = "region") -> Region:
    """Validate and rebuild one region document.

    The dependence graph is reconstructed verbatim — instructions via
    :meth:`~repro.ir.ddg.DataDependenceGraph.add_instruction` (uids are
    column positions) and every edge via :meth:`~repro.ir.ddg.
    DataDependenceGraph.add_dependence` with its explicit latency, in
    column order — then structurally validated (dense uids,
    acyclicity), so a region that parses is schedulable as-is.  Each
    edge kind is replaced by the literal of :data:`_EDGE_KINDS`, so the
    graph holds the string objects an in-process build holds and its
    canonical memo key (a pickle, whose identity memo writes a shared
    string once) equals that build's.

    Args:
        data: The region JSON object.
        field: JSON-path of ``data`` for error reporting.

    Returns:
        The rebuilt :class:`Region`.
    """
    if not isinstance(data, dict):
        raise WireError(field, "region must be an object")
    name = _expect(data, "name", (str,), field)
    if not name:
        raise WireError(f"{field}.name", "region name must be non-empty")
    kind_name = _expect(data, "kind", (str,), field, required=False,
                        default=RegionKind.TRACE.value)
    try:
        kind = RegionKind(kind_name)
    except ValueError:
        raise WireError(f"{field}.kind", f"unknown region kind {kind_name!r}")
    trip_count = _expect(data, "trip_count", (int,), field,
                         required=False, default=1)
    if not 1 <= trip_count <= MAX_TRIP_COUNT:
        raise WireError(f"{field}.trip_count",
                        f"must be in [1, {MAX_TRIP_COUNT}]")
    instructions = _instructions_from_columns(
        _expect(data, "instructions", (dict,), field), f"{field}.instructions"
    )
    ddg_name = _expect(data, "ddg_name", (str,), field,
                       required=False, default="")
    ddg = DataDependenceGraph(name=ddg_name)
    for inst in instructions:
        ddg.add_instruction(inst)
    edges = _expect(data, "edges", (dict,), field, required=False)
    if edges is not None:
        edge_field = f"{field}.edges"
        sources = _expect(edges, "src", (list,), edge_field)
        m = len(sources)
        dests, latencies, kinds = (
            _column(edges, key, m, edge_field, required=True)
            for key in EDGE_COLUMNS[1:]
        )
        _check_uids(sources, len(instructions), f"{edge_field}.src")
        _check_uids(dests, len(instructions), f"{edge_field}.dst")
        _check_entries(latencies, (int,), f"{edge_field}.latency",
                       non_negative=True)
        _check_entries(kinds, (str,), f"{edge_field}.kind")
        for position, edge_kind in enumerate(kinds):
            if edge_kind not in _EDGE_KINDS:
                raise WireError(f"{edge_field}.kind[{position}]",
                                f"unknown edge kind {edge_kind!r}")
        for src, dst, latency, edge_kind in zip(sources, dests, latencies, kinds):
            ddg.add_dependence(src, dst, latency=latency,
                               kind=_EDGE_KINDS[edge_kind])
    region = Region(name=name, ddg=ddg, kind=kind, trip_count=trip_count)
    try:
        ddg.validate()
    except (GraphError, ValueError) as exc:
        raise WireError(field, f"invalid dependence graph: {exc}")
    return region


@dataclass(frozen=True)
class RegionForm:
    """A validated region and its canonical DDG form.

    The value of a region memo: everything :func:`parse_request` derives
    from one region document alone.  Both parts are shared by every
    request that carries the same document, so neither may be mutated.

    Attributes:
        region: The rebuilt region.
        canonical: ``canonical_form(region.ddg)`` — the canonical
            permutation and DDG text :func:`schedule_key` embeds — or
            ``None`` when parsed without a memo.
    """

    region: Region
    canonical: Optional[Tuple[Tuple[int, ...], str]] = None


def _region_forms(
    data: Any, field: str, memo: Optional[MutableMapping[str, RegionForm]]
) -> Tuple[str, List[RegionForm], int]:
    """Validate a program document, resolving each region through ``memo``.

    The memo maps the :func:`~repro.engine.fingerprint.content_digest`
    of a decoded region document to its :class:`RegionForm`.  The
    digest tells distinct decoded values apart (``2`` and ``2.0``,
    ``true`` and ``1`` included) and a region is a pure function of its
    decoded document, so equal digests mean equal parses.  The
    program-level checks (name, region count, instruction total) run on
    every call.  A region not in the memo is parsed — raising
    :class:`WireError` with its own field path when malformed, so a bad
    region is never stored — and canonicalized through
    :func:`~repro.engine.fingerprint.canonical_form`'s own memo, then
    stored.

    Args:
        data: The program JSON object (``name`` + ``regions``).
        field: JSON-path of ``data`` for error reporting.
        memo: The region memo (anything with ``get`` and item
            assignment), or ``None`` to parse every region without
            keying or canonicalizing it.

    Returns:
        ``(program name, one form per region, memo hits)``.
    """
    if not isinstance(data, dict):
        raise WireError(field, "program must be an object")
    name = _expect(data, "name", (str,), field)
    regions_data = _expect(data, "regions", (list,), field)
    if not regions_data:
        raise WireError(f"{field}.regions", "program must have regions")
    if len(regions_data) > MAX_REGIONS:
        raise WireError(f"{field}.regions",
                        f"too many regions (max {MAX_REGIONS})")
    total = 0
    hits = 0
    forms = []
    for index, region_data in enumerate(regions_data):
        region_field = f"{field}.regions[{index}]"
        if memo is None:
            form = RegionForm(region_from_dict(region_data, region_field))
        else:
            key = content_digest(region_data)
            form = None if key is None else memo.get(key)
            if form is not None:
                hits += 1
            else:
                region = region_from_dict(region_data, region_field)
                form = RegionForm(region, canonical_form(region.ddg))
                if key is not None:
                    memo[key] = form
        total += len(form.region.ddg)
        if total > MAX_INSTRUCTIONS:
            raise WireError(f"{field}.regions",
                            f"too many instructions (max {MAX_INSTRUCTIONS})")
        forms.append(form)
    return name, forms, hits


def program_from_dict(data: Any, field: str = "program") -> Program:
    """Validate and rebuild a whole program document.

    Args:
        data: The program JSON object (``name`` + ``regions``).
        field: JSON-path of ``data`` for error reporting.

    Returns:
        The rebuilt :class:`Program`.
    """
    name, forms, _hits = _region_forms(data, field, None)
    return Program(name=name, regions=[form.region for form in forms])


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def compile_request(
    program: Program,
    machine_spec: str,
    scheduler: str,
    seed: Optional[int] = None,
    check_values: bool = False,
    verify: bool = False,
) -> Dict[str, Any]:
    """Build a ``POST /compile`` request body (the client half).

    Args:
        program: The program to compile.
        machine_spec: Machine spec string (``vliw4``, ``raw4x4``, ...).
        scheduler: Registered scheduler name.
        seed: Optional scheduler seed override.
        check_values: Ask the server to replay dataflow during
            simulation.
        verify: Ask the server to gate every region on the static
            verifier.

    Returns:
        The JSON-safe request document.
    """
    body: Dict[str, Any] = {
        "kind": REQUEST_KIND,
        "schema": WIRE_SCHEMA_VERSION,
        "machine": machine_spec,
        "scheduler": scheduler,
        "check_values": check_values,
        "verify": verify,
        "program": program_to_dict(program),
    }
    if seed is not None:
        body["seed"] = seed
    return body


@dataclass
class ParsedRequest:
    """A fully-validated compile request, ready to execute.

    Attributes:
        program: The rebuilt program.
        machine: The machine model built from ``machine_spec``.
        scheduler: A fresh scheduler instance (per-request — scheduler
            state never leaks between requests).
        machine_spec: The spec string from the wire.
        scheduler_name: The registry name from the wire.
        seed: The seed override, or ``None``.
        check_values: Replay dataflow during simulation.
        verify: Gate regions on the static verifier.
        fingerprints: One canonical :class:`~repro.engine.fingerprint.
            Fingerprint` per region, in region order.
        key: The composite request key (SHA-256 hex over the region
            fingerprints + wire schema) used for in-flight
            deduplication.
        region_hits: Regions resolved from the region memo.
        region_misses: Regions parsed and canonicalized afresh.
    """

    program: Program
    machine: Machine
    scheduler: Scheduler
    machine_spec: str
    scheduler_name: str
    seed: Optional[int]
    check_values: bool
    verify: bool
    fingerprints: List[Fingerprint]
    key: str
    region_hits: int
    region_misses: int


def build_scheduler(
    name: str,
    registry: Mapping[str, Callable[[], Scheduler]],
    seed: Optional[int] = None,
    field: str = "request",
) -> Scheduler:
    """Instantiate a scheduler from the registry, applying a seed.

    Args:
        name: Registered scheduler name.
        registry: Name → zero-arg constructor map (normally
            :func:`repro.verify.sweep.scheduler_registry`).
        seed: Optional seed override; only legal for schedulers that
            expose a ``seed`` attribute (the seed lands in the
            scheduler fingerprint via its config payload).
        field: JSON-path for error reporting.

    Returns:
        The fresh scheduler instance.
    """
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise WireError(f"{field}.scheduler",
                        f"unknown scheduler {name!r} (known: {known})")
    scheduler = registry[name]()
    if seed is not None:
        if not hasattr(scheduler, "seed"):
            raise WireError(f"{field}.seed",
                            f"scheduler {name!r} does not take a seed")
        scheduler.seed = seed
    return scheduler


def request_key(fingerprints: Sequence[Fingerprint]) -> str:
    """The composite request fingerprint.

    A SHA-256 digest over the wire schema version and the per-region
    canonical fingerprint keys, in region order.  Two requests share a
    key exactly when every region would hit the same schedule-cache
    slots — the property in-flight deduplication needs.

    Args:
        fingerprints: Per-region fingerprints, in region order.

    Returns:
        The 64-hex-digit composite key.
    """
    digest = hashlib.sha256()
    digest.update(f"wire:{WIRE_SCHEMA_VERSION}".encode())
    for fingerprint in fingerprints:
        digest.update(fingerprint.key.encode())
    return digest.hexdigest()


def parse_request(
    data: Any,
    registry: Mapping[str, Callable[[], Scheduler]],
    memo: Optional[MutableMapping[str, RegionForm]] = None,
    machines: Optional[MutableMapping[str, Machine]] = None,
) -> ParsedRequest:
    """Validate a ``POST /compile`` body end to end (the server half).

    Each region is resolved through ``memo`` (see :func:`_region_forms`):
    a region document seen before skips its parse and canonicalization,
    and every key is the one a fresh parse would give.  The machine is
    resolved through ``machines`` by spec string:
    :func:`~repro.machine.machine_from_spec` builds a machine from the
    spec and code constants alone, so requests naming one spec share one
    :class:`~repro.machine.Machine`, as parse-cache hits already share
    :attr:`ParsedRequest.machine`; nothing may mutate it.

    Args:
        data: The decoded JSON document.
        registry: Scheduler name → constructor map.
        memo: Region memo shared across requests; ``None`` uses a fresh
            one for this call alone.
        machines: Spec string → machine memo shared across requests;
            ``None`` builds the machine for this call alone.

    Returns:
        The :class:`ParsedRequest`, with per-region fingerprints and
        the composite dedup key already computed.
    """
    field = "request"
    if not isinstance(data, dict):
        raise WireError(field, "request body must be a JSON object")
    kind = _expect(data, "kind", (str,), field)
    if kind != REQUEST_KIND:
        raise WireError(f"{field}.kind", f"expected {REQUEST_KIND!r}")
    schema = _expect(data, "schema", (int,), field)
    if schema != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"{field}.schema",
            f"unsupported wire schema {schema} "
            f"(this server speaks {WIRE_SCHEMA_VERSION})",
        )
    machine_spec = _expect(data, "machine", (str,), field)
    machine = None if machines is None else machines.get(machine_spec)
    if machine is None:
        try:
            machine = machine_from_spec(machine_spec)
        except ValueError as exc:
            raise WireError(f"{field}.machine", str(exc))
        if machines is not None:
            machines[machine_spec] = machine
    scheduler_name = _expect(data, "scheduler", (str,), field)
    seed = _expect(data, "seed", (int, type(None)), field, required=False)
    scheduler = build_scheduler(scheduler_name, registry, seed, field)
    check_values = _expect(data, "check_values", (bool,), field,
                           required=False, default=False)
    verify = _expect(data, "verify", (bool,), field,
                     required=False, default=False)
    name, forms, hits = _region_forms(
        _expect(data, "program", (dict,), field), f"{field}.program",
        {} if memo is None else memo,
    )
    machine_text = machine_spec_text(machine_spec)
    fingerprints = [
        schedule_key(form.region, machine, scheduler,
                     check_values=check_values, verify=verify,
                     canonical=form.canonical, machine_text=machine_text)
        for form in forms
    ]
    return ParsedRequest(
        program=Program(name=name, regions=[form.region for form in forms]),
        machine=machine,
        scheduler=scheduler,
        machine_spec=machine_spec,
        scheduler_name=scheduler_name,
        seed=seed,
        check_values=check_values,
        verify=verify,
        fingerprints=fingerprints,
        key=request_key(fingerprints),
        region_hits=hits,
        region_misses=len(forms) - hits,
    )
