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

    def test_default_matches_r_grid_transform(self, tmp_path):
        # the closed-form windowed spectra move I_c by at most 1e-9
        out = tmp_path / "bc.csv"
        assert cli.main(["broadcast", "--out", str(out)]) == 0
        for lam, expected in R_GRID_BROADCAST.items():
            _, rows = read_csv(tmp_path / f"bc_lphi{lam:g}.csv")
            assert [r[0] for r in rows] == list(range(2, 19))
            assert np.max(np.abs(np.array(rows)[:, 1:] - expected)) <= 1e-9


# (ic_bob1, ic_bob2) of the default `broadcast` at r0 = 2, 3, ..., 18, as the
# former r-grid sine transform computed them
R_GRID_BROADCAST = {
    10.0: [
        (-0.9999999999999989, 0.5555672738818627),
        (-0.9999999999999989, 0.5555672738818624),
        (-0.9999999999999989, 0.555567273881862),
        (-0.9999999999999998, 0.5555672738824112),
        (-0.999999999999999, 0.555567279176031),
        (-0.999999999999999, 0.5555735148653382),
        (-0.9999999914252359, 0.5471727325277373),
        (-0.9989337559980896, -0.21427093006875042),
        (-0.6534192022697687, -0.6534190534874176),
        (-0.2283156708693168, -0.998943985735093),
        (0.5465028932338395, -0.999999991519163),
        (0.5555735075066686, -0.9999999999999993),
        (0.5555672793734898, -0.9999999999999966),
        (0.5555672738824587, -0.9999999999999989),
        (0.5555672738818616, -0.9999999999999989),
        (0.5555672738818627, -0.9999999999999989),
        (0.5555672738818627, -0.9999999999999989),
    ],
    1000.0: [
        (-0.9999999999999989, 0.9998494673997514),
        (-0.9999999999999989, 0.999849467408637),
        (-0.9999999999999989, 0.9998494673997517),
        (-0.9999999999999989, 0.9998494674726197),
        (-0.9999999999999989, 0.9998494542123294),
        (-0.9999999999999988, 0.9946705224887222),
        (-0.9999999975127568, -0.00014250529957648972),
        (-0.9989890809692432, -0.004626642680710891),
        (-0.6008817287961583, -0.6008817288164678),
        (-0.004627775709519666, -0.998989081373252),
        (-0.0001425293288204177, -0.9999999975127567),
        (0.9941448106648949, -0.9999999999999988),
        (0.9998494536489284, -0.999999999999999),
        (0.9998494674102488, -0.9999999999999989),
        (0.9998494673216604, -0.9999999999999989),
        (0.9998494673997514, -0.9999999999999989),
        (0.9998494673997514, -0.9999999999999989),
    ],
}


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


# (owner, field) of every float field, and (subcommand argv, flag) reaching one
NON_FINITE_TARGETS = [
    (ChannelConfig, "lambda_phi"), (ChannelConfig, "lambda_pi"),
    (ChannelConfig, "sigma"), (ChannelConfig, "delta"), (ChannelConfig, "k_max"),
    (BobSpec, "r0"), (BobSpec, "eps"),
    (bob_spectra, "delta"), (GaussianShellProfile, "delta"),
    (LightconeInterior2D, "delta"), (NumericSpectrum, "rel_tol"),
    (NumericProfile, "rel_tol"),
    ("capacity", "--lambda-min"), ("broadcast", "--delta"),
    ("smearings", "--delta"), ("smearings", "--rel-tol"),
    ("smearings --dimension 3", "--rel-tol"),
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
    ("smearings --dimension 3", "--rel-tol"): ["--points", "3"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("owner,name", NON_FINITE_TARGETS,
                         ids=[getattr(o, "__name__", o) + "-" + n
                              for o, n in NON_FINITE_TARGETS])
def test_non_finite_input_rejected(owner, name, value, tmp_path):
    if isinstance(owner, str):
        argv = [*owner.split(), f"{name}={value}", "--out", str(tmp_path / "out.csv")]
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


# inputs each rejected before any work: (argv, config file text or None)
BAD_INPUTS = [
    ("capacity --points -1", None), ("capacity --points 0", None),
    ("smearings --points -1", None), ("broadcast --r0-points -1", None),
    ("broadcast --kmax 0", None), ("broadcast --kmax -5", None),
    ("broadcast --lambda-phi abc", None),
    ("capacity", "points = abc"), ("smearings", "dimension = 4"),
]


@pytest.mark.parametrize("argv,config", BAD_INPUTS,
                         ids=[a if c is None else f"{a} [{c}]" for a, c in BAD_INPUTS])
def test_bad_input_exits_2(argv, config, tmp_path):
    args = [*argv.split(), "--out", str(tmp_path / "out.csv")]
    if config is not None:
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(config + "\n", encoding="utf-8")
        args += ["--config", str(cfgfile)]
    assert cli.main(args) == 2


@pytest.mark.parametrize("flag", ("--out", "--plot-script"))
@pytest.mark.parametrize("command", ("capacity --points 3", "smearings --points 3",
                                     "broadcast --r0-points 1"))
def test_missing_output_directory_exits_2_before_computing(command, flag, tmp_path,
                                                           monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the output directory was checked")

    for name in ("capacity_sweep", "broadcast_sweep", "bob_profiles_3d"):
        monkeypatch.setattr(cli, name, refuse)
    missing = tmp_path / "missing"
    assert cli.main([*command.split(), flag, str(missing / "x.csv")]) == 2
    assert "no such directory" in capsys.readouterr().err
    assert not missing.exists()


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
    """The command's plumbing over two cheap suites; tests/test_verify.py
    runs every suite."""

    SUITES = ("qmath-entropy-axioms", "observables-bch-consistency")

    def run(self, monkeypatch, tmp_path, capsys, *flags):
        monkeypatch.setattr(verify, "ALL_SUITES", tuple(
            (name, fn) for name, fn in verify.ALL_SUITES if name in self.SUITES))
        report = tmp_path / "verify.txt"
        code = cli.main(["verify", *flags, "--out", str(report)])
        printed = capsys.readouterr().out
        assert report.read_text(encoding="utf-8") == printed
        *suite_lines, summary = printed.splitlines()
        assert [line.split()[0] for line in suite_lines] == [f"suite={n}" for n in self.SUITES]
        return code, suite_lines, summary

    def test_clean_run_passes(self, monkeypatch, tmp_path, capsys):
        code, suite_lines, summary = self.run(monkeypatch, tmp_path, capsys)
        assert code == 0
        assert all(" status=PASS " in line for line in suite_lines)
        assert summary == "suites=2 failures=0"

    def test_w_sign_mutation_exits_1(self, monkeypatch, tmp_path, capsys):
        code, suite_lines, summary = self.run(monkeypatch, tmp_path, capsys,
                                              "--mutate-w-sign")
        assert code == 1
        assert " status=PASS " in suite_lines[0]
        assert " status=FAIL " in suite_lines[1]
        assert summary == "suites=2 failures=1"

    def test_unknown_subcommand_exits_2(self):
        assert cli.main(["prophesy"]) == 2
