"""§IV: emulator fidelity matrix (FEMU / NVMeVirt / ConfZNS / this work)."""

from conftest import emit, run_once


def test_sec4_emulator_fidelity_matrix(benchmark, results):
    result = run_once(benchmark, lambda: results.get("sec4"))
    emit(result)
    verdicts = result.meta["verdicts"]
    # Paper: FEMU "cannot accurately reproduce any of our observations".
    assert not any(verdicts["femu"].values())
    # NVMeVirt/ConfZNS: read/write accurate, append and transitions not.
    for model in ("nvmevirt", "confzns"):
        assert verdicts[model][3] and verdicts[model][7] and verdicts[model][8]
        for obs in (4, 9, 10, 12, 13):
            assert not verdicts[model][obs], (model, obs)
    # The calibrated model reproduces everything probed.
    assert all(verdicts["this-work"].values())
