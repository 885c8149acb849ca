"""Run artifacts depend neither on the BLAS thread count nor on the cores.

Each topology is trained for two epochs and evaluated in a child process;
the parameters, report and ROC must have the same bytes in a child pinned
to one core as in one on every core. ``cli.main`` holds OpenBLAS on one
thread while a command runs and restores its count after, so the BLAS
count is varied on the library path: the command functions called without
``cli.main`` at one OpenBLAS thread, where the layers share a batch's
segments over the cores, and at two, where they run serially. A kernel
whose sums follow the thread count, such as a GEMM split over its inner
dimension, or a batch's segments summed in another order when shared over
threads, would break this.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seizurecnn import cli, tensor
from seizurecnn.topologies import TOPOLOGIES

CYCLE = """
import os, sys
from seizurecnn import cli
manifest, out, one_core, via_main, *topologies = sys.argv[1:]
if one_core == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    assert len(os.sched_getaffinity(0)) == 1
for topology in topologies:
    run = f"{out}/synth01_{topology}_s0000"
    for argv in (["train", "--manifest", manifest, "--subject", "synth01",
                  "--topology", topology, "--epochs", "2", "--out", out],
                 ["evaluate", "--run", run]):
        if via_main == "1":
            code = cli.main(argv)
        else:  # OpenBLAS keeps the thread count it started with
            args = cli.build_parser().parse_args(argv)
            code = args.func(args)
        if code != 0:
            sys.exit(f"{argv[0]} failed for {topology}")
"""

COMPARED = ("parameters.npz", "report.json", "roc.csv")


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("cooked")
    data, cooked = root / "data", root / "cooked"
    assert cli.main(["synth", "--out", str(data), "--clips", "4", "--test-clips", "2",
                     "--seed", "3"]) == 0
    assert cli.main(["preprocess", "--manifest", str(data / "manifest.json"),
                     "--out", str(cooked)]) == 0
    return cooked / "manifest.json"


def _cycle_digests(manifest: Path, out: Path, one_core=False, via_main=True, **env) -> dict:
    """Train and evaluate every topology in a child, through ``cli.main`` or
    else the command functions alone; each artifact's sha256."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", CYCLE, str(manifest), str(out),
                    "1" if one_core else "0", "1" if via_main else "0", *TOPOLOGIES],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return {f"{t}/{name}": hashlib.sha256((out / f"synth01_{t}_s0000" / name).read_bytes())
            .hexdigest() for t in TOPOLOGIES for name in COMPARED}


def test_one_and_two_blas_threads_give_the_same_bytes(manifest, tmp_path):
    digests = [_cycle_digests(manifest, tmp_path / f"runs_{threads}", via_main=False,
                              OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert digests[0] == digests[1]


def test_one_core_writes_the_same_bytes(manifest, tmp_path):
    assert (_cycle_digests(manifest, tmp_path / "one_core", one_core=True)
            == _cycle_digests(manifest, tmp_path / "every_core"))


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test, its count restored after."""
    if tensor.blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read here")
    get, set_ = tensor._openblas()
    before = get()
    set_(2)
    try:
        yield get()
    finally:
        set_(before)


def test_main_runs_a_command_on_one_blas_thread_and_restores_it(two_blas_threads,
                                                                monkeypatch, tmp_path):
    seen = []
    synth = cli.cmd_synth

    def cmd_synth(args):
        seen.append(tensor.blas_threads())
        if args.seed == "9":
            raise RuntimeError("crashed")
        return synth(args)

    monkeypatch.setattr(cli, "cmd_synth", cmd_synth)
    assert cli.main(["synth", "--out", str(tmp_path / "a"), "--clips", "1",
                     "--test-clips", "0"]) == 0
    assert tensor.blas_threads() == two_blas_threads
    assert cli.main(["synth", "--out", str(tmp_path / "b"), "--seed", "-1"]) == 2
    assert tensor.blas_threads() == two_blas_threads
    with pytest.raises(RuntimeError, match="crashed"):
        cli.main(["synth", "--out", str(tmp_path / "c"), "--seed", "9"])
    assert tensor.blas_threads() == two_blas_threads
    assert seen == [1, 1, 1]
