"""The emitted C++ against ``gallium_runtime.h``, and the header against
the Python definitions it restates.

The compile checks need ``g++``; without one on PATH they skip and say
so.  ``make cpp-check`` runs the same compile over the generated programs
(:mod:`tests.codegen.cpp_check`).
"""

import re
import subprocess

import pytest

from repro.codegen.cpp.emit import RUNTIME_HEADER
from repro.compiler import compile_source
from repro.ir import instructions as irin
from repro.ir.externs import EXTERN_SPECS
from repro.ir.interp import StateStore, _apply_binop
from repro.net.fields import FIELDS
from repro.runtime.server import UPDATE_OPS
from tests.codegen import cpp_check
from tests.conftest import get_compiled

needs_gxx = pytest.mark.skipif(
    cpp_check.gxx() is None,
    reason="g++ not on PATH: the emitted C++ is not compiled",
)

MASK64 = (1 << 64) - 1


def generated_cpp(index: int) -> str:
    return compile_source(cpp_check.generated_source(index)).cpp_source


def assert_compiles(programs):
    errors = cpp_check.compile_errors(programs)
    assert not errors, "\n".join(f"--- {k}\n{v}" for k, v in errors.items())


@needs_gxx
def test_bundled_programs_compile():
    assert_compiles({
        label: get_compiled(label).cpp_source
        for label, _ in cpp_check.sources()
    })


class TestEmitterFixes:
    @needs_gxx
    def test_a_register_write_replicates_under_a_non_keyword(self):
        """gen010 replicates a register: ``UpdateOp::register`` was a
        keyword no header could declare."""
        source = generated_cpp(10)
        assert "gallium::UpdateOp::REGISTER" in source
        assert_compiles({"gen010": source})

    def test_a_pass_through_value_reaches_the_return_shim(self):
        """gen003 carries ``t31`` from pre to post through the server,
        which never names it: the handler's environment starts as the
        decoded to-server shim, as the Python server's does."""
        source = generated_cpp(3)
        assert "v_t31 = in_shim.t31;" in source
        assert "out_shim.t31 = v_t31;" in source

    def test_the_return_shim_carries_the_ingress_port(self):
        source = get_compiled("minilb").cpp_source
        assert "ctx.ingress_port = in_shim.ingress_port;" in source
        assert "out_shim.ingress_port = ctx.ingress_port;" in source

    def test_a_modulo_renders_through_the_guarded_helper(self):
        source = get_compiled("minilb").cpp_source
        assert "gallium::mod(v_hash32_1, v_t7)" in source
        assert "%" not in source


def test_no_binop_renders_as_a_bare_undefined_operator(middlebox_name,
                                                       compiled):
    assert not cpp_check.bare_operators(compiled.cpp_source)


def test_the_header_has_no_dpdk_io():
    """A DPDK build needs a frame parser and a shim codec in the wire
    order, which the header does not have: the macro is a hard error."""
    header = RUNTIME_HEADER.read_text()
    assert "#include <rte" not in header
    (guarded,) = re.findall(r"#ifdef GALLIUM_DPDK\n(.*?)#endif", header, re.S)
    assert guarded.startswith("#error ")


def test_update_ops_are_the_runtimes():
    """The header's ``UpdateOp`` enumerators are ``StateUpdate.op``'s
    names for the journal's ops, in the one spelling the emitter uses."""
    (enumerators,) = re.findall(
        r"enum class UpdateOp \{([^}]*)\}", RUNTIME_HEADER.read_text()
    )
    assert {e.strip() for e in enumerators.split(",")} == {
        op.upper() for op in UPDATE_OPS.values()
    }


#: Operands at the edges of the IR's arithmetic: zero divisors, shift
#: amounts at and past the 6-bit mask, and all-ones values.
EDGES = (0, 1, 3, 63, 64, 65, (1 << 32) - 1, 1 << 63, MASK64)
GUARDED = (
    irin.BinOpKind.MUL, irin.BinOpKind.DIV, irin.BinOpKind.MOD,
    irin.BinOpKind.SHL, irin.BinOpKind.SHR,
)


def run_cpp(tmp_path, body: str) -> str:
    path = tmp_path / "check.cc"
    path.write_text(
        f'#include "{RUNTIME_HEADER.name}"\n#include <cinttypes>\n'
        f"int main() {{\n    int bad = 0;\n{body}    return bad;\n}}\n"
    )
    binary = tmp_path / "check"
    subprocess.run(
        [cpp_check.gxx(), "-std=c++17", f"-I{RUNTIME_HEADER.parent}",
         str(path), "-o", str(binary)],
        check=True, capture_output=True, text=True,
    )
    result = subprocess.run([str(binary)], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout
    return result.stdout


@needs_gxx
def test_helpers_compute_as_the_ir(tmp_path):
    """Each guarded helper equals ``_apply_binop`` wrapped to 64 bits, and
    ``at()`` equals the interpreter's vector read, on the edge cases."""
    checks = []
    for op in GUARDED:
        for a in EDGES:
            for b in EDGES:
                expected = _apply_binop(op, a, b) & MASK64
                checks.append(
                    (f"gallium::{op.name.lower()}({a}ULL, {b}ULL)", expected)
                )
    store = StateStore({})
    store.vectors["v"] = [5, 6, 7]
    for index in (0, 2, 3, MASK64):
        checks.append(
            (f"gallium::at(v, {index}ULL)", store.vector_get("v", index))
        )
    body = "    std::vector<uint64_t> v = {5, 6, 7};\n" + "".join(
        f"    if ({expr} != {value}ULL) {{ bad = 1;"
        f' printf("%s = %" PRIu64 "\\n", "{expr}", (uint64_t)({expr})); }}\n'
        for expr, value in checks
    )
    assert run_cpp(tmp_path, body) == ""


@needs_gxx
def test_every_field_path_and_extern_compiles():
    """The header declares every ``cpp`` path of the field table as an
    lvalue, and every extern at its arity."""
    lines = [
        "static void touch(gallium::PacketContext &ctx) {",
        "    auto *eth = ctx.eth();",
        "    auto *ip = ctx.ip();",
        "    auto *tcp = ctx.tcp();",
        "    auto *udp = ctx.udp();",
        "    uint64_t value = 0;",
    ]
    for row in FIELDS:
        lines.append(f"    value += {row.cpp};")
        lines.append(f"    {row.cpp} = value;")
    for name, spec in sorted(EXTERN_SPECS.items()):
        args = ", ".join(["ctx"] + ["1"] * len(spec.params))
        lines.append(f"    gallium::{name}({args});")
    lines.append("}")
    assert_compiles({
        "fields": f'#include "{RUNTIME_HEADER.name}"\n' + "\n".join(lines)
    })
