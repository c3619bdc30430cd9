"""Wire schema for the compile service.

The ``POST /compile`` body is a self-describing JSON document carrying
a whole :class:`~repro.ir.regions.Program` (explicit instruction and
edge lists — no client-side pickling), a machine spec string, and a
scheduler configuration.  This module is the single source of truth
for that format: serializers used by clients (:func:`program_to_dict`,
:func:`compile_request`), strict validating deserializers used by the
server (:func:`parse_request`), and the request fingerprint
(:func:`request_key`) built from the engine's canonical per-region
:func:`~repro.engine.fingerprint.schedule_key` — so the server's
request hashing, in-flight deduplication, and schedule-cache addressing
all share one relabelling-invariant notion of identity.

Every validation failure raises :class:`WireError` with a JSON-path
``field``; the server maps it to a structured HTTP 400.  A request that
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
WIRE_SCHEMA_VERSION = 1

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
    if isinstance(value, bool) and bool not in kinds:
        raise WireError(f"{field}.{key}", "expected a number, got a boolean")
    if not isinstance(value, kinds):
        expected = "/".join(k.__name__ for k in kinds)
        raise WireError(
            f"{field}.{key}", f"expected {expected}, got {type(value).__name__}"
        )
    return value


# ----------------------------------------------------------------------
# Program <-> JSON
# ----------------------------------------------------------------------


def instruction_to_dict(inst: Instruction) -> Dict[str, Any]:
    """Serialize one instruction (uid implied by list position)."""
    return {
        "opcode": inst.opcode.value,
        "operands": list(inst.operands),
        "home_cluster": inst.home_cluster,
        "name": inst.name,
        "bank": inst.bank,
        "immediate": inst.immediate,
    }


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
    """Serialize one region with explicit instruction and edge lists.

    Edges are emitted exhaustively (including the operand-derived data
    edges) in :func:`_edge_emission_order`, so deserialization rebuilds
    the graph with :meth:`~repro.ir.ddg.DataDependenceGraph.
    add_instruction` + :meth:`~repro.ir.ddg.DataDependenceGraph.
    add_dependence` and reproduces the exact adjacency-list orders —
    schedulers tie-break on them, and served schedules must be
    byte-identical to serial ones.

    Args:
        region: The region to serialize.

    Returns:
        The JSON-safe region document.
    """
    ddg = region.ddg
    return {
        "name": region.name,
        "kind": region.kind.value,
        "trip_count": region.trip_count,
        "ddg_name": ddg.name,
        "instructions": [
            instruction_to_dict(ddg.instruction(uid)) for uid in range(len(ddg))
        ],
        "edges": [
            [edge.src, edge.dst, edge.latency, edge.kind]
            for edge in _edge_emission_order(ddg)
        ],
    }


def program_to_dict(program: Program) -> Dict[str, Any]:
    """Serialize a whole program (name + region documents)."""
    return {
        "name": program.name,
        "regions": [region_to_dict(region) for region in program.regions],
    }


def _instruction_from_dict(
    data: Any, uid: int, n_instructions: int, field: str
) -> Instruction:
    """Validate and rebuild one instruction document.

    Args:
        data: The instruction JSON object.
        uid: Its position (= uid) in the region's instruction list.
        n_instructions: Region instruction count, for operand bounds.
        field: JSON-path of ``data``.

    Returns:
        The rebuilt :class:`Instruction`.
    """
    if not isinstance(data, dict):
        raise WireError(field, "instruction must be an object")
    opcode_name = _expect(data, "opcode", (str,), field)
    try:
        opcode = Opcode(opcode_name)
    except ValueError:
        raise WireError(f"{field}.opcode", f"unknown opcode {opcode_name!r}")
    operands = _expect(data, "operands", (list,), field,
                       required=False, default=[])
    for position, operand in enumerate(operands):
        if isinstance(operand, bool) or not isinstance(operand, int):
            raise WireError(f"{field}.operands[{position}]",
                            "operand uid must be an integer")
        if not 0 <= operand < n_instructions:
            raise WireError(f"{field}.operands[{position}]",
                            f"uid {operand} out of range")
    home = _expect(data, "home_cluster", (int, type(None)), field,
                   required=False)
    if home is not None and home < 0:
        raise WireError(f"{field}.home_cluster", "must be non-negative")
    bank = _expect(data, "bank", (int, type(None)), field, required=False)
    # Kept as the JSON number type it arrived as: the DDG fingerprint
    # tells ``2`` from ``2.0``, so a round trip must not turn one into the other.
    immediate = _expect(data, "immediate", (int, float, type(None)), field,
                        required=False)
    name = _expect(data, "name", (str,), field, required=False, default="")
    try:
        return Instruction(
            uid=uid,
            opcode=opcode,
            operands=tuple(operands),
            home_cluster=home,
            name=name,
            bank=bank,
            immediate=immediate,
        )
    except ValueError as exc:
        raise WireError(field, str(exc))


def region_from_dict(data: Any, field: str = "region") -> Region:
    """Validate and rebuild one region document.

    The dependence graph is reconstructed verbatim — instructions via
    :meth:`~repro.ir.ddg.DataDependenceGraph.add_instruction` (uids are
    list positions) and every edge via :meth:`~repro.ir.ddg.
    DataDependenceGraph.add_dependence` with its explicit latency —
    then structurally validated (dense uids, acyclicity), so a region
    that parses is schedulable as-is.

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
    instructions = _expect(data, "instructions", (list,), field)
    if not instructions:
        raise WireError(f"{field}.instructions",
                        "region must have at least one instruction")
    if len(instructions) > MAX_INSTRUCTIONS:
        raise WireError(f"{field}.instructions",
                        f"too many instructions (max {MAX_INSTRUCTIONS})")
    ddg_name = _expect(data, "ddg_name", (str,), field,
                       required=False, default="")
    ddg = DataDependenceGraph(name=ddg_name)
    for uid, inst_data in enumerate(instructions):
        ddg.add_instruction(
            _instruction_from_dict(
                inst_data, uid, len(instructions),
                f"{field}.instructions[{uid}]",
            )
        )
    edges = _expect(data, "edges", (list,), field, required=False, default=[])
    for position, edge in enumerate(edges):
        edge_field = f"{field}.edges[{position}]"
        if (not isinstance(edge, list) or len(edge) != 4):
            raise WireError(edge_field, "edge must be [src, dst, latency, kind]")
        src, dst, latency, edge_kind = edge
        for label, value in (("src", src), ("dst", dst), ("latency", latency)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise WireError(edge_field, f"{label} must be an integer")
        if not isinstance(edge_kind, str):
            raise WireError(edge_field, "kind must be a string")
        for label, value in (("src", src), ("dst", dst)):
            if not 0 <= value < len(instructions):
                raise WireError(edge_field, f"{label} uid {value} out of range")
        try:
            ddg.add_dependence(src, dst, latency=latency, kind=edge_kind)
        except (ValueError, GraphError) as exc:
            raise WireError(edge_field, str(exc))
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
) -> ParsedRequest:
    """Validate a ``POST /compile`` body end to end (the server half).

    Each region is resolved through ``memo`` (see :func:`_region_forms`):
    a region document seen before skips its parse and canonicalization,
    and every key is the one a fresh parse would give.

    Args:
        data: The decoded JSON document.
        registry: Scheduler name → constructor map.
        memo: Region memo shared across requests; ``None`` uses a fresh
            one for this call alone.

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
    try:
        machine = machine_from_spec(machine_spec)
    except ValueError as exc:
        raise WireError(f"{field}.machine", str(exc))
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
