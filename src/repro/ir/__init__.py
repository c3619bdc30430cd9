"""Instruction IR: opcodes, instructions, dependence graphs, regions."""

from .builder import RegionBuilder, Value
from .cfg import BasicBlock, CfgEdge, ControlFlowGraph, Stmt
from .ddg import DataDependenceGraph, GraphError
from .instruction import DependenceEdge, Instruction
from .opcode import FuncClass, LatencyModel, Opcode, func_class, is_memory, is_pseudo
from .regions import Program, Region, RegionKind
from .traces import form_traces, lower_trace, program_from_cfg

__all__ = [
    "BasicBlock",
    "CfgEdge",
    "ControlFlowGraph",
    "DataDependenceGraph",
    "DependenceEdge",
    "FuncClass",
    "GraphError",
    "Instruction",
    "LatencyModel",
    "Opcode",
    "Program",
    "Region",
    "RegionBuilder",
    "RegionKind",
    "Stmt",
    "Value",
    "form_traces",
    "func_class",
    "lower_trace",
    "program_from_cfg",
    "is_memory",
    "is_pseudo",
]
