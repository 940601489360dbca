"""Fuzz the CLI error contract over argv drawn from a bounded vocabulary.

Whatever the flags, `cli.main` exits 0, 1, 2 or 3, prints a category line on
every failure, never a traceback or a warning, and a successful run writes no
non-finite value. Photon and resample counts stay small (at most 2 000 and
50), so no case asks for a large grid or bootstrap.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpdlab import cli

RUN_MODES = ("sweep", "fringe", "erasure", "wpd-verify", "montecarlo", "tomography")
NUMBERS = ("0", "1", "-1", "0.5", "22.5", "1e-300", "1e306", "-1e306",
           "nan", "inf", "-inf", "abc", "")
RANGES = ("0:45:15", "0:45:0", "0:45:-15", "45:0:15", "-1:1:0.5", "0:1e306:1",
          "0:1:1e-300", "-1e306:1e306:1", "0,22.5,45", "0,nan", "1:2", "::")
FLAGS = {
    "--theta0": NUMBERS,
    "--theta1": NUMBERS + RANGES,
    "--delta": NUMBERS + RANGES,
    "--stokes": ("0,0,0", "0,0,1", "0,0.5,0", "0.3,0.3,0.3", "1,1,1", "nan,0,0",
                 "0,0", "0,0,0;0,0,1", "abc", ""),
    "--photons": NUMBERS,
    "--seed": NUMBERS + ("7",),
    "--visibility-scale": NUMBERS,
    "--wavelength-nm": NUMBERS + ("679",),
    "--bandwidth-nm": NUMBERS + ("20",),
    "--shape": ("monochromatic", "rectangular", "bogus", ""),
    "--phi-points": NUMBERS + ("8", "64"),
    "--resamples": NUMBERS,
}
OPTIONS = [f"{flag}={value}" for flag, values in FLAGS.items() for value in values]


@st.composite
def argvs(draw):
    """A mode, a few flags (a flag may repeat), then small photon and
    resample counts, so the large defaults never apply."""
    return [draw(st.sampled_from(RUN_MODES)),
            *draw(st.lists(st.sampled_from(OPTIONS), max_size=4)),
            f"--photons={draw(st.sampled_from(('1', '100', '2000')))}",
            f"--resamples={draw(st.sampled_from(('1', '10', '50')))}"]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=argvs())
def test_error_contract_holds_for_any_argv(out_dir, argv):
    out = out_dir / "x.csv"
    written = (out, out.with_suffix(".summary.csv"))
    for path in written:
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([*argv, f"--out={out}"])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err and "Warning" not in err, err
    if code:
        assert "error: category=" in err
        return
    for path in written:
        if path.exists():
            for line in path.read_text().splitlines():
                if not line.startswith("#"):
                    assert not {"nan", "inf", "-inf"} & set(line.split(",")), (path.name, line)
