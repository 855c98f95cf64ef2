"""Cold-start tests: what a fresh interpreter loads, and that the calls whose
scipy import is deferred work from one.

`import cryoguide` loads numpy and the package only; scipy.ndimage is
imported inside the functions that call it (docking, a non-zero blur,
`dust`).  Each test starts a new interpreter, since the test process itself
has long loaded scipy.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from cryoguide.alignment import dock_to_map
from cryoguide.forward import BlurOperator, grid_for_model, simulate_map
from cryoguide.priors import chain_template, hinged_chain_modes, two_mode_chain_prior
from cryoguide.volume import dust, write_mrc

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
# the thread variables as this module's collection saw them, before
# perfbench/tests is collected
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "CRYOGUIDE_WORKERS")
COLLECTED_WITH = {v: os.environ.get(v) for v in THREAD_VARS}


def run_cold(code: str, *args: str) -> str:
    """Run `code` in a new interpreter that imports cryoguide from src/;
    returns its standard output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


GUIDED_DEMO = """
import json, sys
import cryoguide
from cryoguide.config import RunConfig
from cryoguide.pipeline import run_guided, run_unguided

def scipy_loaded():
    return sorted(m for m in ("scipy", "scipy.ndimage") if m in sys.modules)

cfg = json.loads(sys.argv[1])
loaded = {"import": scipy_loaded()}
records = run_guided(RunConfig(**cfg))
loaded["run_guided"] = scipy_loaded()
run_unguided(RunConfig(**dict(cfg, outdir=cfg["outdir"] + "-unguided")))
loaded["run_unguided"] = scipy_loaded()
print(json.dumps({"loaded": loaded, "status": [r.status for r in records]}))
"""


def test_guided_demo_never_loads_scipy(tmp_path):
    """The criterion-01 demo, registration off and no blur, in a few steps."""
    prior, _ = two_mode_chain_prior()
    minority = chain_template(prior.mode_coords(1))
    map_path = tmp_path / "minority.mrc"
    write_mrc(simulate_map(minority, grid_for_model(minority, 1.0, 4.0), 2.0), map_path)
    cfg = dict(map=str(map_path), outdir=str(tmp_path / "out"), prior="chain-two-mode",
               sigma_min=0.064, sigma_max=2560.0, churn=0.4, reach=40.0,
               schedule_kind="custom", n_steps=16, t_warm=10, t_global=2,
               t_local=2, t_relax=2, k_points=7, register=False, blur_sigma=0.0,
               n_samples=2, n_replicates=1, seed=0)
    out = json.loads(run_cold(GUIDED_DEMO, json.dumps(cfg)))
    assert out["loaded"] == {"import": [], "run_guided": [], "run_unguided": []}
    assert len(out["status"]) == 2


def deferred_calls() -> dict[str, np.ndarray]:
    """One call of each function that imports scipy.ndimage when called."""
    model = chain_template(hinged_chain_modes()[0])
    dmap = simulate_map(model, grid_for_model(model, voxel_size=1.0, pad=4.0), 2.0)
    rng = np.random.default_rng(7)
    speckled = replace(dmap, data=np.where(rng.random(dmap.shape) < 0.1, 1.0,
                                           dmap.data * (dmap.data > 1.0)))
    moved = model.with_coords(model.coords() + np.array([1.5, -1.0, 0.5]))
    transform, score = dock_to_map(moved, dmap, 2.0, n_rotations=8)
    return {"dust": dust(speckled, 3).data,
            "blur": BlurOperator(0.7).apply(dmap.data, dmap.voxel_size),
            "rotation": transform.rotation, "translation": transform.translation,
            "score": np.array(score)}


DEFERRED = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[3] == "warm":
    import scipy.ndimage
import numpy as np
from test_cold_start import deferred_calls
print("scipy" in sys.modules)
np.savez(sys.argv[2], **deferred_calls())
"""


def test_deferred_imports_work_from_a_cold_start(tmp_path):
    """The calls in an interpreter that has not loaded scipy give bitwise
    what they give in one that loaded scipy.ndimage before cryoguide.

    Both sides are fresh interpreters with one environment.  The test
    process fixed its BLAS thread count when it loaded numpy, and a thread
    variable set since reaches only a child, changing the summation order
    of the docking score's map-sized dot product.
    """
    got = {}
    for start in ("cold", "warm"):
        path = tmp_path / f"{start}.npz"
        loaded = run_cold(DEFERRED, str(TESTS), str(path), start).split()
        assert loaded == [str(start == "warm")]
        with np.load(path) as saved:
            got[start] = dict(saved)
    assert sorted(got["cold"]) == ["blur", "dust", "rotation", "score", "translation"]
    for name, value in got["warm"].items():
        cold = got["cold"][name]
        assert cold.dtype == value.dtype and cold.shape == value.shape
        assert cold.tobytes() == value.tobytes(), name


def test_collection_leaves_thread_variables_alone():
    """Collecting perfbench/tests imports perfbench/run.py, which pins the
    thread variables for the benchmark; the root conftest.py puts them back
    before any test runs."""
    assert {v: os.environ.get(v) for v in THREAD_VARS} == COLLECTED_WITH
