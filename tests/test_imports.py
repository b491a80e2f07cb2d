"""Every kings path runs on numpy alone, so scipy stays unimported, the
reproduce path leaves numpy.random unloaded until its referee run, every
exported name resolves, and every library name the benchmark binds still
resolves."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import kings

REPRODUCE = """
import sys, tempfile
import kings
from kings import bounds, cube, game, mub, presets, search, strategy, tables

for d in (2, 3, 4, 5, 7):
    assert mub.certify_family(mub.construct_mub(d)).passed
family4 = mub.construct_mub(4)
bases = search.find_measurement_bases(search.find_signal_states(family4))
strat = strategy.build_strategy(family4, 0, 0, bases[0].basis)
strategy.success_exact(strat)
strategy.complement_strategy(strat).success()
family3 = mub.construct_mub(3)
assert search.certify_d3_impossible(family3).passed
bounds.relaxed_f_max(family3)
setup = cube.make_cube_setup()
cube.vaa_success_exact(setup)
cube.conventional_cube_optimize(setup)
with tempfile.TemporaryDirectory() as out:
    tables.write_tables(out)
strategies = [presets.d4_optimal_strategy(), presets.d2_optimal_strategy(),
              presets.cube_vaa_strategy(), presets.cube_conventional_strategy()]
assert "numpy.random" not in sys.modules, "the reproduce path loads numpy.random"
game.run(game.GameConfig(strategy=strategies[0], trials=1000, seed=0))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


REPAIR = """
import sys
import numpy as np
from kings import mub, strategy, verify

repaired = 0
for d in (3, 4, 5, 7, 11):
    family = mub.construct_mub(d)
    for seed in range(5):
        for prep in (0, d):
            strategy.random_strategy(family, prep, np.random.default_rng(seed))
            control = strategy.random_control_basis(d, np.random.default_rng(seed))
            repaired += not strategy.assign_greedy(family, prep, control).is_well_conditioned()
assert repaired > 0, "no strategy needed a repair"
assert verify.criterion_property_battery().passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.fixture(scope="module")
def scipy_modules():
    """One fresh interpreter runs the reproduce path, then the repair paths,
    and prints the scipy modules loaded after each."""
    src = str(Path(kings.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + REPRODUCE + REPAIR], capture_output=True, text=True, check=True)
    after_reproduce, after_repair = proc.stdout.splitlines()
    return after_reproduce, after_repair


def test_reproduce_path_never_imports_scipy(scipy_modules):
    assert scipy_modules[0] == "[]"


def test_repair_paths_never_import_scipy(scipy_modules):
    assert scipy_modules[1] == "[]"


def test_every_exported_name_resolves_once():
    """`from kings import *` breaks on a stale export; a duplicate hides one."""
    missing = [name for name in kings.__all__ if not hasattr(kings, name)]
    assert not missing
    assert len(set(kings.__all__)) == len(kings.__all__)


def test_the_benchmark_workloads_resolve_and_pass_their_checks(monkeypatch, tmp_path):
    """perfbench/workloads.py binds library names by attribute: every traced
    layer resolves, and one reproduction, the first 24 smoke sweep ops, one
    smoke referee op and the sweep's counting pass fail no check."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    monkeypatch.setattr(workloads, "OUT", tmp_path)
    k = workloads.import_kings()
    for module, name, _ in workloads.trace_targets(k):
        assert callable(getattr(module, name)), name
    assert workloads.reproduce_iteration(k, 0, 0.0)["problems"] == []
    sweep, referee = workloads.Sweep(smoke=True), workloads.Referee(smoke=True)
    for workload in (sweep, referee):
        workload.load()
        setup = workload.setup()
        assert setup is None or setup.failed == 0
    ops = list(itertools.islice(sweep.ops(1), 24))
    assert {op[0] for op in ops} == {"mub", "cube"}
    outs = [sweep.run(op, None) for op in ops]
    assert sum(out.failed for out in outs) == 0, [p for out in outs for p in out.problems]
    out = referee.run(next(referee.ops(1)), None)
    assert (out.attempted, out.failed) == (4, 0), out.problems
    assert 0 < sweep.counting_pass(1)["strategy.repair_share"] < 1
