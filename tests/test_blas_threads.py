"""A run does not depend on how many threads OpenBLAS uses: each pipeline,
run on a seeded problem under the shadow oracle in a fresh process with
OPENBLAS_NUM_THREADS=1 and with 2, gives bitwise the same outputs,
counters and per-iteration stats. The variable is read when numpy loads
OpenBLAS, hence one subprocess per thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Prints {sample: sha256 of the run's output arrays, counters and stats}.
# The join's tiles (500 x 500, d = 24) are large enough for OpenBLAS to
# split its GEMMs across threads.
SCRIPT = """
import dataclasses, hashlib, json, sys
import numpy as np
from accd.ddsl import lower, parse, validate
from accd.explorer import DesignConfig
from accd.pipelines import RunConfig, run_plan
from accd.synth import gaussian_mixture

def arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays(item)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from arrays(obj[key])

digests = {}
for sample, n, m in (("kmeans.ddsl", 300, 12), ("knn_join.ddsl", 500, 500), ("nbody.ddsl", 400, 400)):
    checked, _ = validate(parse(open(f"{sys.argv[1]}/samples/{sample}").read()))
    plan = dataclasses.replace(lower(checked), source_size=n, target_size=m)
    src = gaussian_mixture(n, plan.dim, 6, 1, center_box=20.0)
    # the join's targets, or k-means' initial centres
    trg = None if sample == "nbody.ddsl" else gaussian_mixture(m, plan.dim, 6, 2, center_box=20.0)
    config = RunConfig(design=DesignConfig(n_src_grp=8, n_trg_grp=4), oracle_mode="shadow")
    result = run_plan(plan, src, trg, config)
    h = hashlib.sha256()
    for arr in arrays(result.outputs):
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    meta = {
        "iterations": result.iterations,
        "counters": result.counters.as_dict(),
        "per_iteration": [s.to_json_dict() for s in result.per_iteration],
    }
    h.update(json.dumps(meta, sort_keys=True).encode())
    digests[sample] = h.hexdigest()
print(json.dumps(digests))
"""


def _digests(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_runs_are_bitwise_equal_under_one_and_two_blas_threads():
    one, two = _digests(1), _digests(2)
    assert sorted(one) == ["kmeans.ddsl", "knn_join.ddsl", "nbody.ddsl"]
    assert one == two
