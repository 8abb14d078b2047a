"""The three workloads: the CLI arguments of one pass, the operations a pass
attempts, and the generated input file the program receives.

Every input is generated by ``tools/make_fixture.py``'s own generator,
imported unchanged, and written to CSV. The generator's seed 7 reproduces the
bundled ``data/prices_2020h1.csv`` byte for byte, which ``write_inputs``
asserts. The panel is the same for every benchmark seed, because the cost of
a pass swings too far across generator seeds; the benchmark seed drives the
sensitivity perturbation. Why each workload and input was chosen is recorded
in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path

FIXTURE_SEED = 7
FIXTURE_CSV = Path("data") / "prices_2020h1.csv"
SWEEP_TICKERS = 80
TRAIN_END = "2020-05-01"
TEST_END = "2020-07-31"
RHO, SIGMA0, LAM, C_PERTURB = 0.001, 0.012, 0.08, 1000.0
PRICES = "prices.csv"  # written next to the pass directories


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int  # operations one pass attempts: model solves or sweep grid points

    def argv(self, prices: str, seed: int) -> list[str]:
        """Arguments for ``portopt.cli_io.main`` for one pass."""
        if self.name == "backtest":
            return ["backtest", prices, "--rho", str(RHO), "--sigma0", str(SIGMA0),
                    "--lambda", str(LAM), "--train-end", TRAIN_END, "--test-end", TEST_END,
                    "--output-dir", "out"]
        if self.name == "sweep":
            return ["sweep-lambda", prices, "--train-end", TRAIN_END, "--output-dir", "out"]
        return ["sensitivity", prices, "--models", "mad,md,md-milp", "--train-end", TRAIN_END,
                "--rho", str(RHO), "--c", str(C_PERTURB), "--seed", str(seed),
                "--output-dir", "out"]


WORKLOADS = {w.name: w for w in (Workload("backtest", 5), Workload("sweep", 100),
                                 Workload("drawdown", 6))}


def load_generator(root: Path):
    """Import ``tools/make_fixture.py`` from the checkout without editing it."""
    spec = importlib.util.spec_from_file_location(
        "make_fixture", root / "tools" / "make_fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(root: Path, workload: Workload, work: Path) -> Path:
    """Write the workload's prices CSV into ``work`` and return its path.

    Raises if the generator at seed 7 does not reproduce the bundled fixture,
    since then the generated panels are not the ones the workloads describe.
    """
    generator = load_generator(root)
    names, dates, prices = generator.build_panel()
    out = work / PRICES
    generator.write_csv(out, names, dates, prices)
    expected = sha256(root / FIXTURE_CSV)
    if sha256(out) != expected:
        raise RuntimeError(f"fixture generator at seed {FIXTURE_SEED} does not reproduce "
                           f"{FIXTURE_CSV} (sha256 {expected})")
    if workload.name == "sweep":
        generator.write_csv(out, names[:SWEEP_TICKERS], dates, prices[:SWEEP_TICKERS])
    return out
