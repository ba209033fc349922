"""Code generation (paper §4.3).

* :mod:`repro.codegen.headers` — shim packet-format synthesis (§4.3.2,
  Figure 5), its bit-level encoder/decoder, and the reserved fields and
  verdict codes of the punt contract,
* :mod:`repro.codegen.p4` — mapping the pre/post CFGs to a structured
  switch program and emitting P4-16 text (Figure 6),
* :mod:`repro.codegen.cpp` — emitting the non-offloaded partition as a
  C++ DPDK-style server program against ``gallium_runtime.h``.
"""
