"""Save the test suite's demos of both variants, train its controller
checkpoints and print the sha256 of all five files.

Generates the 600 controller demos at seed 11 that tests/conftest.py trains
on and saves them as `streampolicy gen-data --env controller --episodes 600
--seed 11` does, a version-2 dataset in the binary container (the `dataset`
line), then does the same for the direct variant (the `direct` line, as
`gen-data --env direct` saves it). It then
reloads the controller demos and trains ctrl_policy, misaligned_policy (the
unaligned ledger path) and ctrl_predictor exactly as tests/conftest.py does
(the RECIPE and MISALIGNED policies and PredictorConfig(seed=0)) on the
reloaded copy, saves each policy with its Adam state and iteration count
and the predictor without an iteration, and prints the sha256 of each file.
Two checkouts that print the same digests generate, save and reload the
same demos of both variants and train the same weights. tests/test_pins.py
pins all five digests. Takes about 19 s on a 2-CPU x86-64 host.

    PYTHONPATH=src python3 scripts/checkpoint_digest.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

# the fixtures' module is the recipe; importing it first also applies its
# BLAS thread settings before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import CTRL, DEMO_COUNT, DEMO_SEED, DIRECT, MISALIGNED, RECIPE  # noqa: E402

from streampolicy.core import load_dataset, save_dataset  # noqa: E402
from streampolicy.envsim import env_metadata, generate_demos  # noqa: E402
from streampolicy.saliency import PredictorConfig, save_predictor, train_predictor  # noqa: E402
from streampolicy.trainer import train  # noqa: E402
from streampolicy.velocitynet import save_policy  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _save_demos(kind, path: Path, label: str) -> None:
    """Generate and save the fixture demos of one variant as gen-data does."""
    t0 = time.perf_counter()
    demos = generate_demos(kind, DEMO_COUNT, seed=DEMO_SEED)
    save_dataset(path, demos, dim=demos[0].actions.shape[1], env_meta=env_metadata(kind),
                 seed=DEMO_SEED)
    print(f"{label:<10} {_sha256(path)}  ({time.perf_counter() - t0:.1f} s)", flush=True)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demos.bin"
        _save_demos(CTRL, path, "dataset")
        _save_demos(DIRECT, Path(tmp) / "direct.bin", "direct")
        demos, _ = load_dataset(path)

        for label, recipe in (("policy", RECIPE), ("misaligned", MISALIGNED)):
            t0 = time.perf_counter()
            policy, adam, _ = train(demos, recipe, alpha0_convention="zero")
            path = Path(tmp) / f"{label}.ckpt"
            save_policy(path, policy, adam=adam, iteration=recipe.iterations)
            print(f"{label:<10} {_sha256(path)}  ({time.perf_counter() - t0:.1f} s)", flush=True)

        t0 = time.perf_counter()
        predictor, _ = train_predictor(demos, PredictorConfig(seed=0))
        path = Path(tmp) / "predictor.ckpt"
        save_predictor(path, predictor)
        print(f"predictor  {_sha256(path)}  ({time.perf_counter() - t0:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
