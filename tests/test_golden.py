"""CLI output bytes against golden files.

The files under ``tests/golden/`` were written by the dense, per-column elimination
kernel.  Verdicts, Betti tables and the canonical bases inside written instance files
must come out byte-identical from any later kernel.
"""

from pathlib import Path

import pytest

from vbgroupoids.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden file, vbg arguments; "{d}" is the directory holding the generated instances)
STDOUT_CASES = [
    ("cohomology-ruth-gauge-z3-4.jsonl", "cohomology {d}/gen-gauge-z3-4.json gauged0 --pmax 3"),
    ("cohomology-vb-gauge-z3-4.jsonl", "cohomology {d}/groth-gauged0.json gauged0.groth --pmax 2"),
    ("cohomology-vb-sum-z2-0.jsonl", "cohomology {d}/groth-sum0.json sum0.groth --pmax 3"),
    ("cohomology-map-cech-pullback-z2-0.jsonl", "cohomology {d}/gen-cech-pullback-z2-0.json psi --pmax 2"),
    ("morita-cech-pullback-z2-0.jsonl", "morita {d}/gen-cech-pullback-z2-0.json psi"),
]

# (golden file, vbg arguments that write it into "{o}")
WRITTEN_CASES = [
    ("split-gauged0.groth.json", "split {d}/groth-gauged0.json gauged0.groth --out {o}"),
    (
        "descend-psi.json",
        "descend {d}/gen-cech-pullback-z2-0.json --cover cover --map psi --gamma gamma"
        " --gamma-prime gamma_prime --out {o}",
    ),
    ("descend-object.json", "descend {d}/gen-perturbed-pullback-pt-2.json --cover cover --object object --out {o}"),
]

SETUP = [
    "gen --recipe gauge:z3 --seed 4 --out {d}",
    "gen --recipe sum:z2 --seed 0 --out {d}",
    "gen --recipe cech-pullback:z2 --seed 0 --out {d}",
    "gen --recipe perturbed-pullback:pt --seed 2 --out {d}",
    "groth {d}/gen-gauge-z3-4.json gauged0 --out {d}",
    "groth {d}/gen-sum-z2-0.json sum0 --out {d}",
]


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    d = tmp_path_factory.mktemp("instances")
    for cmd in SETUP:
        assert main(cmd.format(d=d).split()) == 0
    return d


@pytest.mark.parametrize("golden,cmd", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
def test_stdout_matches_golden(golden, cmd, instances, capsys):
    capsys.readouterr()
    assert main(cmd.format(d=instances).split()) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden,cmd", WRITTEN_CASES, ids=[c[0] for c in WRITTEN_CASES])
def test_written_file_matches_golden(golden, cmd, instances, tmp_path):
    assert main(cmd.format(d=instances, o=tmp_path).split()) == 0
    assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()
