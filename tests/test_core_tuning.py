"""The host kernels' geometry accessor (`repro.core.tuning.kernel_tuning`).

The block budget, the minimum blocked stride and the parallel cutover
are committed constants measured ahead of use, so the accessor must
return exactly them — for every dtype, whatever the environment says —
and must never measure anything or touch the disk.
"""

from repro.core.tuning import KernelTuning, kernel_tuning
from repro.kernels import lane, threaded


def test_kernel_tuning_reads_no_environment_and_writes_no_file(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_BLOCK_BYTES", "not-a-number")
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune.json"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    constants = KernelTuning(
        block_bytes=lane.BLOCK_BYTES,
        min_stride_bytes=lane.BLOCKED_MIN_STRIDE_BYTES,
        parallel_cutover_bytes=threaded.PARALLEL_CUTOVER_BYTES,
    )
    assert kernel_tuning("int64", refresh=True) == constants
    assert kernel_tuning("int32") == constants
    assert list(tmp_path.iterdir()) == []
