"""Congruence analysis: turning memory banks into preplacement.

Both Rawcc and the Chorus compiler run a congruence pass (Larsen &
Amarasinghe, PACT 2002 / Barua et al., ISCA 1999) that proves which
memory bank each load/store touches; since banks are distributed across
clusters, those memory operations become *preplaced* on the bank's home
cluster.  Our kernels record the bank each memory operation touches;
this module binds banks to a concrete machine's clusters.

It also implements each compiler's convention for values live across
scheduling regions:

* **Chorus**: every cross-region value lives on the first cluster.
* **Rawcc**: the home is the cluster of the first definition/use the
  compiler encounters; we model that with a deterministic round-robin
  over the region's live-ins and live-outs.
"""

from __future__ import annotations


from ..ir.opcode import Opcode
from ..ir.regions import Program, Region
from ..machine.machine import Machine


def apply_congruence(program: Program, machine: Machine) -> Program:
    """Preplace memory and cross-region values for ``machine`` (in place).

    Memory operations with a known bank get ``home_cluster =
    machine.bank_home(bank)``.  Live-in/live-out pseudo-ops without an
    explicit home get the machine's cross-region convention.  Returns
    ``program`` for chaining.
    """
    for region in program.regions:
        _congruence_region(region, machine)
    return program


def _congruence_region(region: Region, machine: Machine) -> None:
    rotor = 0
    for inst in region.ddg:
        if inst.is_memory and inst.bank is not None:
            inst.home_cluster = machine.bank_home(inst.bank)
        elif inst.opcode in (Opcode.LIVE_IN, Opcode.LIVE_OUT) and inst.home_cluster is None:
            if machine.name.startswith("vliw"):
                inst.home_cluster = 0
            else:
                inst.home_cluster = rotor % machine.n_clusters
                rotor += 1


def clear_preplacement(program: Program) -> Program:
    """Remove every home-cluster annotation (for ablation studies)."""
    for region in program.regions:
        for inst in region.ddg:
            inst.home_cluster = None
    return program
