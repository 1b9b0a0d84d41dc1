"""End-to-end tests of the command-line interface."""

import warnings

import numpy as np
import pytest

from fieldchannel import cli, verify
from fieldchannel.channel import BobSpec, ChannelConfig
from fieldchannel.errors import BadParameter
from fieldchannel.propagation import LightconeInterior2D, bob_spectra
from fieldchannel.smearing import (
    GaussianProfile,
    GaussianShellProfile,
    GaussianSpectrum,
    NumericProfile,
    NumericSpectrum,
)


def read_csv(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [tuple(float(x) for x in line.split(",")) for line in f if line.strip()]
    return header, rows


class TestCapacity:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "capacity.csv"
        assert cli.main(["capacity", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["lambda_phi_over_sigma", "ic", "ic_clamped"]
        assert len(rows) == 30
        assert rows[-1][1] >= 0.99

    def test_weak_coupling_all_clamped(self, tmp_path):
        out = tmp_path / "weak.csv"
        assert cli.main(["capacity", "--out", str(out), "--lambda-max", "0.5"]) == 0
        _, rows = read_csv(out)
        assert all(r[2] == 0.0 for r in rows)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["capacity", "--points", "8"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "cap.csv"
        script = tmp_path / "plot_cap.py"
        assert cli.main(["capacity", "--points", "4", "--out", str(out),
                         "--plot-script", str(script)]) == 0
        text = script.read_text(encoding="utf-8")
        assert "matplotlib" in text and str(out) in text
        compile(text, str(script), "exec")  # emitted script must parse


class TestSmearings:
    def test_3d_lightcone_localization(self, tmp_path):
        out = tmp_path / "sm3.csv"
        assert cli.main(["smearings", "--dimension", "3", "--delta", "10",
                         "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["r", "fb1", "fb2", "fb3"]
        arr = np.array(rows)
        peak = np.max(np.abs(arr[:, 1]))
        at_5 = arr[np.isclose(arr[:, 0], 5.0)][0, 1]
        assert abs(at_5) <= 1e-10 * peak

    def test_2d_interior_support(self, tmp_path):
        out = tmp_path / "sm2.csv"
        assert cli.main(["smearings", "--dimension", "2", "--delta", "10",
                         "--points", "41", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        arr = np.array(rows)
        peak = np.max(np.abs(arr[:, 1]))
        at_5 = arr[np.isclose(arr[:, 0], 5.0)][0, 1]
        assert abs(at_5) >= 1e-3 * peak

    def test_delta_zero_reduces_to_gaussian(self, tmp_path):
        out = tmp_path / "sm0.csv"
        assert cli.main(["smearings", "--dimension", "3", "--delta", "0",
                         "--points", "51", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        arr = np.array(rows)
        gauss = np.exp(-arr[:, 0] ** 2) / np.pi**1.5
        assert np.allclose(arr[:, 1], 0.0, atol=1e-12)
        assert np.max(np.abs(arr[:, 2] - gauss)) < 1e-9
        assert np.allclose(arr[:, 3], 0.0, atol=1e-12)

    def test_bad_dimension_rejected(self):
        assert cli.main(["smearings", "--dimension", "4"]) == 2


class TestBroadcast:
    def test_single_lambda_run(self, tmp_path):
        out = tmp_path / "bc.csv"
        assert cli.main(["broadcast", "--lambda-phi", "10", "--r0-min", "4",
                         "--r0-max", "16", "--r0-points", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["r0", "ic_bob1", "ic_bob2"]
        assert len(rows) == 3
        for _, ic1, ic2 in rows:
            assert min(ic1, ic2) <= 1e-6

    def test_both_lambdas_two_files(self, tmp_path):
        out = tmp_path / "bc.csv"
        assert cli.main(["broadcast", "--r0-min", "2", "--r0-max", "18",
                         "--r0-points", "2", "--out", str(out)]) == 0
        assert (tmp_path / "bc_lphi10.csv").exists()
        assert (tmp_path / "bc_lphi1000.csv").exists()
        _, rows = read_csv(tmp_path / "bc_lphi1000.csv")
        assert rows[0][2] >= 0.99   # smallest r0: outer receiver gets everything
        assert rows[-1][1] >= 0.99  # largest r0: inner receiver does


# (subcommand, flag, value) for every flag a subcommand does not read
REMOVED_FLAGS = [
    ("capacity", "--jobs", "2"), ("capacity", "--rel-tol", "1e-4"),
    ("capacity", "--kmax", "77"), ("capacity", "--eps", "0.3"),
    ("capacity", "--delta", "5"),
    ("smearings", "--jobs", "2"), ("smearings", "--kmax", "3"),
    ("smearings", "--eps", "0.4"),
    ("broadcast", "--jobs", "2"), ("broadcast", "--rel-tol", "1e-3"),
    ("verify", "--jobs", "2"), ("verify", "--rel-tol", "1e-3"),
    ("verify", "--kmax", "3"), ("verify", "--eps", "0.1"),
    ("verify", "--delta", "5"), ("verify", "--plot-script", "plot.py"),
]


class TestFlags:
    @pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
    def test_flag_not_read_is_rejected(self, command, flag, value):
        assert cli.main([command, flag, value]) == 2


# (owner, field) of every float field, and (subcommand, flag) reaching one
NON_FINITE_TARGETS = [
    (ChannelConfig, "lambda_phi"), (ChannelConfig, "lambda_pi"),
    (ChannelConfig, "sigma"), (ChannelConfig, "delta"), (ChannelConfig, "k_max"),
    (BobSpec, "r0"), (BobSpec, "eps"),
    (bob_spectra, "delta"), (GaussianShellProfile, "delta"),
    (LightconeInterior2D, "delta"), (NumericSpectrum, "rel_tol"),
    (NumericProfile, "rel_tol"),
    ("capacity", "--lambda-min"), ("broadcast", "--delta"),
    ("smearings", "--delta"), ("smearings", "--rel-tol"),
]
# the other arguments each owner needs, and the flags each subcommand needs
# to reach the checked field
REQUIRED_ARGS = {
    ChannelConfig: {"lambda_phi": 1.0},
    bob_spectra: {"fa": GaussianSpectrum(1.0, 3)},
    GaussianShellProfile: {"sigma": 1.0, "order": 0},
    LightconeInterior2D: {"sigma": 1.0},
    NumericSpectrum: {"profile": GaussianProfile(1.0, 3)},
    NumericProfile: {"source": GaussianSpectrum(1.0, 2)},
}
REQUIRED_FLAGS = {
    ("broadcast", "--delta"): ["--lambda-phi", "10", "--r0-points", "2"],
    ("smearings", "--delta"): ["--points", "3"],
    ("smearings", "--rel-tol"): ["--points", "3", "--dimension", "2"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("owner,name", NON_FINITE_TARGETS,
                         ids=[getattr(o, "__name__", o) + "-" + n
                              for o, n in NON_FINITE_TARGETS])
def test_non_finite_input_rejected(owner, name, value, tmp_path):
    if isinstance(owner, str):
        argv = [owner, f"{name}={value}", "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv + REQUIRED_FLAGS.get((owner, name), [])) == 2
    else:
        with pytest.raises(BadParameter):
            owner(**{**REQUIRED_ARGS.get(owner, {}), name: float(value)})


@pytest.mark.parametrize("value", ["0", "-1", "inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--lambda-min", "--lambda-max"])
def test_capacity_grid_bounds_checked_before_use(flag, value, tmp_path, capsys):
    # the grid is log-spaced: the bounds are checked before numpy sees them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["capacity", f"{flag}={value}",
                         "--out", str(tmp_path / "out.csv")]) == 2
    assert flag in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda_max = 0.5\npoints = 5\n# comment\n", encoding="utf-8")
        out = tmp_path / "c.csv"
        assert cli.main(["capacity", "--config", str(cfgfile), "--points", "7",
                         "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 7                      # flag beats file
        assert max(r[0] for r in rows) == pytest.approx(0.5)  # file value applied

    def test_unknown_key_rejected(self, tmp_path):
        # jobs is a removed flag: its key is as unknown as a misspelled one
        cfgfile = tmp_path / "bad.cfg"
        for line in ("lambda_maximum = 2\n", "jobs = 2\n"):
            cfgfile.write_text(line, encoding="utf-8")
            assert cli.main(["capacity", "--config", str(cfgfile)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert cli.main(["capacity", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestVerify:
    def test_clean_run_passes(self, tmp_path, capsys):
        report = tmp_path / "verify.txt"
        code = cli.main(["verify", "--out", str(report)])
        captured = capsys.readouterr().out
        assert code == 0
        suite_lines = [l for l in captured.splitlines() if l.startswith("suite=")]
        assert len(suite_lines) >= 12
        assert all("status=PASS" in l for l in suite_lines)
        assert report.exists()

    def test_w_sign_mutation_caught(self):
        results = verify.run_suites(w_sign_flip=True,
                                    names={"observables-bch-consistency"})
        assert len(results) == 1
        assert not results[0].passed

    def test_unknown_subcommand_exits_2(self):
        assert cli.main(["prophesy"]) == 2
