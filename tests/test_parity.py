"""tools/parity.py compare on two small hand-written dumps."""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location("parity", Path(__file__).parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

BEFORE = {
    "a:Z": np.array([[4.0 + 2.0j, 1.0], [1.0, 2.0]]),
    "a:amplitudes": np.array([0.5 + 0.5j, -1.0]),
    "a:gain_dbi_2deg": np.array([[-180.0, 2.0], [-3.0, -40.0]]),
    "a:magnitude_2deg": np.array([[0.0, 1.0], [0.5, 0.01]]),
    "a:residual": np.array(1e-15),
    "b:error": np.array("SolverError: feed current vanished"),
    "b:Z": np.array([[8.0]]),
}


def _compare(tmp_path, capsys, after):
    np.savez(tmp_path / "before.npz", **BEFORE)
    np.savez(tmp_path / "after.npz", **after)
    rc = parity.compare(str(tmp_path / "before.npz"), str(tmp_path / "after.npz"))
    return rc, capsys.readouterr().out.splitlines()


def test_compare_equal_dumps(tmp_path, capsys):
    rc, lines = _compare(tmp_path, capsys, BEFORE)
    assert rc == 0
    assert lines[0] == "7 of 7 arrays equal"
    assert "largest Z difference: 0 of the largest entry" in lines
    assert "largest gain_dbi_2deg difference: 0 dB" in lines


def test_compare_prints_each_array_names_largest_difference(tmp_path, capsys):
    """Z over both cases relative to each case's largest entry; gain only where both sit above the floor."""
    after = dict(BEFORE)
    after["a:Z"] = BEFORE["a:Z"] + np.array([[0.0, 2e-3j], [2e-3j, 0.0]])  # 2e-3 of |4 + 2j|
    after["b:Z"] = np.array([[8.0 + 8e-4]])  # 1e-4 of 8
    after["a:gain_dbi_2deg"] = np.array([[-170.0, 2.0], [-3.5, -40.0]])  # the -180 sample is left out
    del after["a:residual"]
    after["c:Z"] = np.array([[1.0]])
    rc, lines = _compare(tmp_path, capsys, after)
    assert rc == 1
    assert lines[:6] == [
        "a:Z: differs",
        "a:gain_dbi_2deg: differs",
        "a:residual: only in " + str(tmp_path / "before.npz"),
        "b:Z: differs",
        "c:Z: only in " + str(tmp_path / "after.npz"),
        "3 of 8 arrays equal",
    ]
    assert f"largest Z difference: {2e-3 / abs(4 + 2j):.3g} of the largest entry" in lines
    assert "largest gain_dbi_2deg difference: 0.5 dB" in lines
    assert "largest amplitudes difference: 0 of the largest entry" in lines
    assert not any("residual" in line or "error" in line for line in lines[6:])


def test_compare_prints_the_residual_difference_as_is(tmp_path, capsys):
    """A solve residual is already relative, so its difference is not scaled again."""
    rc, lines = _compare(tmp_path, capsys, {**BEFORE, "a:residual": np.array(3e-15)})
    assert rc == 1
    assert "largest residual difference: 2e-15" in lines
