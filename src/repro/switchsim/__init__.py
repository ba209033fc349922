"""Behavioral model of a programmable (Tofino-class) switch.

This package plays the role of the Barefoot switch + SDK in the paper's
testbed: it executes the compiled pre/post pipelines at "line rate",
enforces the architectural restrictions of §2.2 at both build time and run
time (no loops, P4-expressible operations only, one access per stateful
element per traversal, bounded scratchpad), and exposes a control-plane API
whose updates are slow relative to the data plane (Table 3) and atomic via
write-back tables + a visibility bit (§4.3.3).
"""

from repro.switchsim.tables import ExactMatchTable, TableEntryLimit
from repro.switchsim.registers import Register
from repro.switchsim.program import SwitchProgram, SwitchProgramError, TableSpec, RegisterSpec
from repro.switchsim.pipeline import PipelineExecutor, SwitchStateAdapter
from repro.switchsim.control_plane import (
    ControlPlane,
    ControlPlaneFault,
    RetryPolicy,
    UpdateBatchError,
    UpdateBatchResult,
)
from repro.switchsim.switch_model import SwitchModel, SwitchOutput

__all__ = [
    "ExactMatchTable",
    "TableEntryLimit",
    "Register",
    "SwitchProgram",
    "SwitchProgramError",
    "TableSpec",
    "RegisterSpec",
    "PipelineExecutor",
    "SwitchStateAdapter",
    "ControlPlane",
    "ControlPlaneFault",
    "RetryPolicy",
    "UpdateBatchError",
    "UpdateBatchResult",
    "SwitchModel",
    "SwitchOutput",
]
