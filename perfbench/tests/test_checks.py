"""Each correctness check accepts the reference answer and rejects a perturbed one."""

import numpy as np
import pytest

import workloads
from tensorlandscape.simulate import AscentTrace, noiseless_tensor


def bands_output(values):
    lines = ["quantity,value"] + [f"{k},{v!r}" for k, v in values.items()]
    return {"rc": 0, "stdout": "\n".join(lines) + "\n", "file": ""}


@pytest.mark.parametrize("name", ["zero_band_m2", "star_band_m1", "zero_band_m_star"])
def test_bands_check_rejects_endpoint_moved_by_1e_6(name):
    ref = workloads.load_ref("bands")
    assert workloads.check_bands(bands_output(ref["values"]), ref) is None
    moved = dict(ref["values"], **{name: ref["values"][name] + 1e-6})
    assert name in workloads.check_bands(bands_output(moved), ref)


def oracle_outputs(ref, shift=None):
    outputs = []
    for spec in workloads.ORACLE_RUNS:
        lines = ["n,log_expected_count,std_error"]
        for n in spec["n_list"]:
            r = ref["estimates"][workloads.oracle_key(spec["lambda"], spec["which"], n)]
            lm, se = r["log_mean"], r["log_std_error"]
            if shift and (spec["which"], n) == shift[0]:
                lm, se = shift[1], 10.0  # wide error: only the ordering check can object
            lines.append(f"{n},{lm!r},{se!r}")
        lines.append(f"# growth_rate,{workloads.GROWTH_LIMIT + 0.01!r}")
        outputs.append({"rc": 0, "stdout": "", "file": "\n".join(lines) + "\n"})
    return outputs


def test_oracle_check_rejects_zero_estimate_above_star():
    ref = workloads.load_ref("oracle")
    assert workloads.check_oracle(oracle_outputs(ref), ref) == [None, None, None]
    star_80 = ref["estimates"]["0/star/80"]["log_mean"]
    messages = workloads.check_oracle(oracle_outputs(ref, (("zero", 80), star_80 + 0.01)), ref)
    assert messages[:2] == [None, None]
    assert "above star at n = [80]" in messages[2]


def test_oracle_check_rejects_estimate_far_from_reference():
    ref = workloads.load_ref("oracle")
    outputs = oracle_outputs(ref)
    r = ref["estimates"]["1.5/star/40"]
    outputs[0]["file"] = outputs[0]["file"].replace(repr(r["log_mean"]), repr(r["log_mean"] + 3.0))
    assert "n=40" in workloads.check_oracle(outputs, ref)[0]


def test_inventory_check_rejects_missing_point():
    for ref in workloads.load_ref("inventory")["tensors"]:
        points = [dict(p, sigma=np.array(p["sigma"]), grad_norm=0.0) for p in ref["points"]]
        full = {"points": points, "starts": 100}
        assert workloads.check_inventory(full, ref) is None
        short = dict(full, points=points[1:])
        assert "reference" in workloads.check_inventory(short, ref)


def test_inventory_problem_detects_broken_pairing_and_euler():
    ref = workloads.load_ref("inventory")["tensors"][0]
    points = [dict(p) for p in ref["points"]]
    assert workloads.inventory_problem(points, 5) is None
    points[0] = dict(points[0], index=(points[0]["index"] + 1) % 5)
    assert workloads.inventory_problem(points, 5) is not None


def test_ascent_and_power_checks():
    u = np.array([1.0, 0.0, 0.0])
    tensor = noiseless_tensor(3, 3, 1.0, u)
    good = AscentTrace(f_values=np.array([0.1, 0.2, 0.3]), grad_norm=0.0, iters=2, converged=True)
    bad = AscentTrace(f_values=np.array([0.1, 0.3, 0.2]), grad_norm=0.0, iters=2, converged=True)
    assert workloads.check_ascent((u, good)) is None
    assert "monotone" in workloads.check_ascent((u, bad))
    assert workloads.check_power((u, 3), tensor, must_recover=True) is None
    assert "not recovered" in workloads.check_power((np.array([0.0, 1.0, 0.0]), 3), tensor,
                                                    must_recover=True)
