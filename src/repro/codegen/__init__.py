"""Code generation (paper §4.3).

* :mod:`repro.codegen.headers` — shim packet-format synthesis (§4.3.2,
  Figure 5) and its bit-level encoder/decoder,
* :mod:`repro.codegen.p4` — mapping the pre/post CFGs to a structured
  switch program and emitting P4-16 text (Figure 6),
* :mod:`repro.codegen.cpp` — emitting the non-offloaded partition as a
  C++ DPDK-style server program.
"""

from repro.codegen.headers import (
    ShimField,
    ShimLayout,
    synthesize_shim_layouts,
    FLAG_VERDICT_NONE,
    FLAG_VERDICT_SEND,
    FLAG_VERDICT_DROP,
)

__all__ = [
    "ShimField",
    "ShimLayout",
    "synthesize_shim_layouts",
    "FLAG_VERDICT_NONE",
    "FLAG_VERDICT_SEND",
    "FLAG_VERDICT_DROP",
]
