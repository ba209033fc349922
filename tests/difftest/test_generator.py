"""The seeded program generator: determinism, validity, coverage."""

from repro.difftest.generator import generate_program


def generate_source(seed):
    return generate_program(seed).source()
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program

SEEDS = range(40)


def test_deterministic():
    """Same seed, same program — failure reports reproduce from the seed."""
    for seed in (0, 1, 7, 1234, 10**9):
        assert generate_source(seed) == generate_source(seed)


def test_seeds_differ():
    sources = {generate_source(seed) for seed in SEEDS}
    assert len(sources) > len(SEEDS) // 2


def test_every_program_lowers():
    """Generated programs stay inside the parseable/lowerable subset."""
    for seed in SEEDS:
        source = generate_source(seed)
        lowered = lower_program(parse_program(source, f"gen{seed}.cc"))
        assert lowered.process.blocks


def test_seed_recorded():
    program = generate_program(42)
    assert program.seed == 42
    assert "seed=42" in program.source()


def test_coverage_over_seed_space():
    """The corners the gauntlet exists for actually appear in the space."""
    sources = [generate_source(seed) for seed in range(120)]
    blob = "\n".join(sources)
    assert "udp->" in blob  # UDP headers
    assert "tcp->" in blob  # TCP headers
    assert "->ttl" in blob or "->tos" in blob  # 8-bit fields
    assert ".insert(" in blob and ".erase(" in blob and ".find(" in blob
    assert "for (" in blob  # bounded loops
    assert "pkt->drop();" in blob and "pkt->send_to(" in blob
    assert "0xdeadbeef" in blob or "0x" in blob  # >16-bit constants
    assert any(s.count("if (") >= 3 for s in sources)  # nested conditionals
    # Resource-boundary programs: at least one long dependent ALU chain.
    assert any(s.count("acc") > 25 for s in sources)
