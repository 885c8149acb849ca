"""Run artifacts do not depend on the BLAS thread count.

Each topology is trained for two epochs and evaluated in a child process
at one and at two OpenBLAS threads; the parameters, report and ROC must
have the same bytes. A kernel whose sums follow the thread count, such as
a GEMM split over its inner dimension, would break this.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from seizurecnn import cli
from seizurecnn.topologies import TOPOLOGIES

CYCLE = """
import sys
from seizurecnn import cli
manifest, out, *topologies = sys.argv[1:]
for topology in topologies:
    run = f"{out}/synth01_{topology}_s0000"
    for argv in (["train", "--manifest", manifest, "--subject", "synth01",
                  "--topology", topology, "--epochs", "2", "--out", out],
                 ["evaluate", "--run", run]):
        if cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed for {topology}")
"""

COMPARED = ("parameters.npz", "report.json", "roc.csv")


def _digests(out: Path) -> dict:
    return {f"{t}/{name}": hashlib.sha256((out / f"synth01_{t}_s0000" / name).read_bytes())
            .hexdigest() for t in TOPOLOGIES for name in COMPARED}


def test_one_and_two_blas_threads_give_the_same_bytes(tmp_path):
    data, cooked = tmp_path / "data", tmp_path / "cooked"
    assert cli.main(["synth", "--out", str(data), "--clips", "4", "--test-clips", "2",
                     "--seed", "3"]) == 0
    assert cli.main(["preprocess", "--manifest", str(data / "manifest.json"),
                     "--out", str(cooked)]) == 0
    src = str(Path(cli.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"runs_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", CYCLE, str(cooked / "manifest.json"), str(out),
                        *TOPOLOGIES], env=env, stdout=subprocess.DEVNULL, check=True)
        digests.append(_digests(out))
    assert digests[0] == digests[1]
