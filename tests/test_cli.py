"""Config parsing, CLI subcommands, sweeps, determinism of artifacts."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piezobeam import (
    BeamParameters,
    CflViolation,
    DuplicateKey,
    MalformedValue,
    MissingKey,
    NonPositiveParameter,
    ValidationError,
    derive_constants,
    parse_config,
    run_sweep,
)
from piezobeam.cli import run
from piezobeam.config import FLOAT_KEYS, INT_KEYS, PHYSICAL_KEYS, RunConfig, load_config
from piezobeam.csvio import format_value, read_csv, write_csv

MINIMAL = """\
# unit beam
rho = 1
alpha1 = 1
beta = 1
gamma = 1
mu = 1
length = 1
thickness = 1
"""

HALF = MINIMAL.replace("gamma = 1", f"gamma = {math.sqrt(0.5)!r}")


@pytest.fixture
def half_cfg(tmp_path):
    path = tmp_path / "half.cfg"
    path.write_text(HALF)
    return path


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.params.rho == 1.0 and cfg.params.thickness == 1.0
        assert cfg.J == 64 and cfg.n == 2048
        assert cfg.cfl == 0.9 and cfg.qmax == 10_000
        assert cfg.tol == 1e-9
        assert cfg.k == 0.5  # 1/(2*thickness)
        dc = derive_constants(cfg.params)
        assert dc.zeta1 == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_default_gain_follows_thickness_without_the_parser(self):
        params = BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0, thickness=0.25)
        parsed = parse_config(MINIMAL.replace("thickness = 1", "thickness = 0.25"))
        assert RunConfig(params=params).k == parsed.k == 2.0
        assert RunConfig(params=params, k=3.0).k == 3.0

    def test_missing_key(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("mu"))
        with pytest.raises(MissingKey, match="mu"):
            parse_config(text)

    def test_zero_gamma_rejected(self):
        with pytest.raises(NonPositiveParameter, match="gamma"):
            parse_config(MINIMAL.replace("gamma = 1", "gamma = 0"))

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey, match="rho"):
            parse_config(MINIMAL + "rho = 2\n")

    def test_malformed_value(self):
        with pytest.raises(MalformedValue, match="line 2"):
            parse_config(MINIMAL.replace("rho = 1", "rho = one"))

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedValue, match="voltage"):
            parse_config(MINIMAL + "voltage = 3\n")
        with pytest.raises(MalformedValue, match="seed"):
            parse_config(MINIMAL + "seed = 42\n")

    def test_option_overrides(self):
        cfg = parse_config(MINIMAL + "J = 16\nN = 128\nk = 0.25\ntol = 1e-6\n")
        assert cfg.J == 16 and cfg.n == 128 and cfg.k == 0.25 and cfg.tol == 1e-6

    def test_non_integer_rejected(self):
        with pytest.raises(MalformedValue, match="J"):
            parse_config(MINIMAL + "J = 2.5\n")

    @pytest.mark.parametrize(
        "line, error",
        [
            ("J = 1e400", MalformedValue),
            ("N = nan", MalformedValue),
            ("k = -inf", MalformedValue),
            ("rho = inf", MalformedValue),
            ("J = 0", NonPositiveParameter),
            ("N = -4", NonPositiveParameter),
            ("qmax = 0", NonPositiveParameter),
            ("T = -1", NonPositiveParameter),
            ("sample_dt = 0", NonPositiveParameter),
            ("tol = -1e-9", NonPositiveParameter),
            ("cfl = 0", CflViolation),
            ("cfl = 1", CflViolation),
            ("cfl = 1.5", CflViolation),
            ("thickness = 1e-320", MalformedValue),  # default k = 1/(2*thickness) overflows
        ],
    )
    def test_bad_number_rejected_with_line(self, line, error, tmp_path, capsys):
        """Non-finite or out-of-range numbers fail at parse time, naming their line,
        and the CLI exits 2."""
        key = line.split("=")[0].strip()
        text = line + "\n" + MINIMAL.replace(f"\n{key} = 1\n", "\n")
        with pytest.raises(error, match="line 1:"):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert run(["spectrum", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2
        assert "line 1:" in capsys.readouterr().err


    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_fuzzed_documents_parse_or_raise_validation_error(self, data):
        """Any document either parses to finite, in-range numbers or raises a
        ``ValidationError``; no other exception escapes.

        The physical keys get positive finite values (subnormals included) and
        are each dropped now and then; up to four more lines carry any key or
        junk with any number, text or junk value."""
        number = st.one_of(
            st.floats().map(repr),
            st.integers(-10, 10**6).map(str),
            st.sampled_from(["nan", "-inf", "1e400", "1e-320", "0x10", "1_0", "", "1/2"]),
            st.text(max_size=6),
        )
        keys = st.one_of(st.sampled_from(PHYSICAL_KEYS + INT_KEYS + FLOAT_KEYS), st.text(max_size=6))
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)
        lines = [f"{key} = {data.draw(positive)}" for key in PHYSICAL_KEYS
                 if data.draw(st.integers(0, 29))]
        lines += data.draw(st.lists(
            st.one_of(st.builds("{} = {}".format, keys, number), st.text(max_size=12)), max_size=4))
        text = "\n".join(data.draw(st.permutations(lines)))
        try:
            cfg = parse_config(text)
        except ValidationError:
            return
        params = [getattr(cfg.params, key) for key in PHYSICAL_KEYS]
        assert all(math.isfinite(v) and v > 0 for v in params + [cfg.T, cfg.sample_dt, cfg.tol])
        assert all(type(v) is int and v >= 1 for v in (cfg.J, cfg.n, cfg.qmax))
        assert math.isfinite(cfg.k) and 0 < cfg.cfl < 1


class TestCommands:
    def test_classify_summary_line(self, half_cfg, capsys):
        assert run(["classify", "--config", str(half_cfg)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("EXPONENTIALLY_STABLE p=1 q=2")
        assert "gap=1.1107" in out and "Tmin=5.657" in out

    def test_constants_roundtrip_full_precision(self, half_cfg, tmp_path, capsys):
        out_csv = tmp_path / "constants.csv"
        assert run(["constants", "--config", str(half_cfg), "--out", str(out_csv)]) == 0
        header, rows = read_csv(out_csv)
        assert header == ["alpha", "zeta1", "zeta2", "b1", "b2"]
        dc = derive_constants(load_config(str(half_cfg)).params)
        parsed = [float(v) for v in rows[0]]
        assert parsed == [dc.alpha, dc.zeta1, dc.zeta2, dc.b1, dc.b2]

    def test_spectrum_row_count(self, half_cfg, tmp_path, capsys):
        out_csv = tmp_path / "spectrum.csv"
        assert (
            run(["spectrum", "--config", str(half_cfg), "--jmax", "5", "--out", str(out_csv)])
            == 0
        )
        header, rows = read_csv(out_csv)
        assert header == ["family", "sign", "j", "im_lambda"]
        assert len(rows) == 20  # 4 branches per j

    def test_simulate_oddpair_barely_decays(self, tmp_path, capsys):
        cfg = tmp_path / "third.cfg"
        cfg.write_text(MINIMAL.replace("gamma = 1", f"gamma = {2 / math.sqrt(3)!r}"))
        out_csv = tmp_path / "traj.csv"
        code = run(
            [
                "simulate",
                "--config",
                str(cfg),
                "--mode",
                "closed",
                "--N",
                "256",
                "--T",
                "10",
                "--initial",
                "oddpair:1,3",
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        summary = capsys.readouterr().out
        rate = float(summary.split("decay_rate=")[1].split()[0])
        assert abs(rate) < 1e-3
        header, rows = read_csv(out_csv)
        assert header == ["time", "energy", "y"]
        assert len(rows) > 10

    def test_transfer_csv_schema(self, half_cfg, tmp_path, capsys):
        out_csv = tmp_path / "freq.csv"
        code = run(
            ["transfer", "--config", str(half_cfg), "--s1", "1.0", "--im-max", "10",
             "--n-points", "51", "--out", str(out_csv)]
        )
        assert code == 0
        header, rows = read_csv(out_csv)
        assert header == ["re_s", "im_s", "re_G", "im_G", "abs_G"]
        assert len(rows) == 51

    def test_observability_csv(self, tmp_path, capsys):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(MINIMAL)
        out_csv = tmp_path / "obs.csv"
        code = run(
            ["observability", "--config", str(cfg), "--count", "3", "--T", "10",
             "--out", str(out_csv)]
        )
        assert code == 0
        header, rows = read_csv(out_csv)
        assert header == ["p", "q", "err", "quotient"]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 3), (5, 13), (21, 55)]
        quotients = [float(r[3]) for r in rows]
        assert quotients[0] > quotients[1] > quotients[2]

    def test_snapshot_roundtrip_as_initial_data(self, half_cfg, tmp_path, capsys):
        """Snapshots written by one run can seed another through file: initial data."""
        snap_dir = tmp_path / "snaps"
        args = ["simulate", "--config", str(half_cfg), "--mode", "closed",
                "--N", "128", "--T", "0.5", "--initial", "sine:1",
                "--out", str(tmp_path / "a.csv"), "--snapshots", str(snap_dir)]
        assert run(args) == 0
        header, rows = read_csv(snap_dir / "index.csv")
        assert header == ["index", "time", "file"]
        assert len(rows) >= 1
        state_file = snap_dir / rows[-1][2]
        header, _ = read_csv(state_file)
        assert header == ["x", "v", "p", "vdot", "pdot"]
        code = run(
            ["simulate", "--config", str(half_cfg), "--mode", "closed", "--N", "128",
             "--T", "0.5", "--initial", f"file:{state_file}",
             "--out", str(tmp_path / "b.csv")]
        )
        assert code == 0

    def test_exit_code_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("gamma = 1", "gamma = -1"))
        assert run(["classify", "--config", str(bad)]) == 2
        assert "NonPositiveParameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["transfer", "--s1", "nan"], "MalformedValue: --s1 must be a finite number"),
            (["transfer", "--im-max", "inf"], "MalformedValue: --im-max must be a finite number"),
            (["transfer", "--n-points", "0"], "NonPositiveParameter: --n-points must be >= 1"),
            (["simulate", "--N", "64", "--k", "nan"], "MalformedValue: k must be a finite number"),
            (["simulate", "--N", "64", "--T", "inf"], "T must be finite and > 0"),
            (["observability", "--T", "inf"], "T must be finite and > 0"),
            (["observability", "--T", "nan"], "T must be finite and > 0"),
        ],
    )
    def test_bad_numeric_flag_exits_2(self, argv, message, half_cfg, tmp_path, capsys):
        """A flag that is not finite or out of range is named and writes nothing."""
        out_csv = tmp_path / "out.csv"
        assert run(argv + ["--config", str(half_cfg), "--out", str(out_csv)]) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "preset, message",
        [
            ("sine:0", "mode index j must be an integer >= 1, got 0"),
            ("sine:-2", "mode index j must be an integer >= 1, got -2"),
            ("oddpair:2,4", "ParityViolation: (2, 4) must both be odd"),
            ("oddpair:3,9", "InvalidBudget: need coprime p, q; got (3, 9)"),
            ("oddpair:-1,3", "InvalidBudget: need positive p, q; got (-1, 3)"),
        ],
    )
    def test_invalid_initial_preset_exits_2(self, preset, message, half_cfg, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        argv = ["simulate", "--config", str(half_cfg), "--N", "64", "--T", "0.5",
                "--initial", preset, "--out", str(out_csv)]
        assert run(argv) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty CSV file"),
            ("x,v,p,vdot,pdot\n", "samples must be five 1-d arrays of one length >= 2"),
            ("x,v,p,vdot,pdot\n0,0,0,0,0\n", "samples must be five 1-d arrays of one length >= 2"),
            ("x,v,p,vdot,pdot\n0,0,0,0,0\n1,0,0,1\n", "expected columns x,v,p,vdot,pdot"),
            ("x,v,p,vdot,pdot\n0,0,0,0,0\n0.5,nan,0,1,0\n1,0,0,0,0\n", "samples must be finite"),
            ("x,v,p,vdot,pdot\n0,0,0,0,0\n0.7,0,0,1,0\n0.5,0,0,1,0\n1,0,0,0,0\n",
             "x must increase strictly"),
            ("x,v,p,vdot,pdot\n0,0,0,0,0\n0.5,0,0,1,0\n0.9,0,0,0,0\n", "x must increase strictly"),
            ("x,v,p,vdot,pdot\n0.1,0,0,0,0\n0.5,0,0,1,0\n1,0,0,0,0\n", "x must increase strictly"),
        ],
    )
    def test_invalid_initial_file_exits_2(self, text, message, half_cfg, tmp_path, capsys):
        """A state file that is empty, ragged, not finite or short of [0, L] writes nothing."""
        state = tmp_path / "state.csv"
        state.write_text(text)
        out_csv = tmp_path / "traj.csv"
        argv = ["simulate", "--config", str(half_cfg), "--N", "64", "--T", "0.5",
                "--initial", f"file:{state}", "--out", str(out_csv)]
        assert run(argv) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    def test_classify_has_no_out_flag(self, half_cfg, tmp_path, capsys):
        """``classify`` only prints, so ``--out`` is an argparse error and no file appears."""
        out_csv = tmp_path / "classify.csv"
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--config", str(half_cfg), "--out", str(out_csv)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_classify_infinite_tol_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(MINIMAL)
        assert run(["classify", "--config", str(cfg), "--tol", "inf"]) == 2
        captured = capsys.readouterr()
        assert "InvalidBudget: need qmax >= 1 and 0 < tol < inf" in captured.err
        assert captured.out == ""

    def test_exit_code_missing_file(self, tmp_path, capsys):
        assert run(["classify", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_exit_code_numerical_failure(self, half_cfg, capsys, monkeypatch):
        from piezobeam import cli
        from piezobeam.errors import PoleProximity

        def explode(args, cfg):
            raise PoleProximity("synthetic")

        monkeypatch.setitem(cli._COMMANDS, "constants", explode)
        assert run(["constants", "--config", str(half_cfg)]) == 3
        assert "PoleProximity" in capsys.readouterr().err


class TestSweeps:
    def test_zeta_ratio_sweep_matches_serial(self, tmp_path):
        cfg = parse_config(MINIMAL)
        values = list(np.linspace(0.2, 2.0, 16))
        rows = run_sweep(cfg, "gamma", values, "zeta_ratio")
        assert [r[0] for r in rows] == values
        ratios = [r[1] for r in rows]
        assert all(e == "" for _, _, e in rows)
        for value, ratio in zip(values, ratios):
            from dataclasses import replace

            dc = derive_constants(replace(cfg.params, gamma=value))
            assert ratio == dc.ratio
        assert all(b < a for a, b in zip(ratios, ratios[1:]))  # coupling splits speeds

    def test_single_value_equals_single_run(self):
        cfg = parse_config(MINIMAL)
        row = run_sweep(cfg, "gamma", [1.0], "zeta_ratio")[0]
        assert row[1] == derive_constants(cfg.params).ratio

    def test_error_isolation(self):
        cfg = parse_config(MINIMAL)
        rows = run_sweep(cfg, "gamma", [0.5, 0.0, 1.5], "zeta_ratio")
        assert rows[0][2] == "" and rows[2][2] == ""
        assert math.isnan(rows[1][1]) and "DegenerateCoupling" in rows[1][2]

    @pytest.mark.parametrize("name", ["T", "zeta1", "Rho"])
    def test_param_must_be_physical(self, name):
        with pytest.raises(ValueError, match="not a physical parameter"):
            run_sweep(parse_config(MINIMAL), name, [1.0], "zeta_ratio")

    def test_byte_identical_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL)
        values = list(np.linspace(0.3, 1.8, 12))
        paths = []
        for i in range(2):
            rows = run_sweep(cfg, "gamma", values, "zeta_ratio", workers=4)
            path = tmp_path / f"sweep_{i}.csv"
            write_csv(path, ["value", "metric", "error"], rows)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_serial_by_default(self, half_cfg, tmp_path, capsys):
        """Sweeps always run serially: the default, ``workers=2`` and the CLI without
        ``--workers`` return the ``workers=1`` rows; fewer than one worker is an error."""
        cfg = parse_config(MINIMAL)
        values = [0.5, 0.7, 0.9]
        serial = run_sweep(cfg, "gamma", values, "zeta_ratio", workers=1)
        assert run_sweep(cfg, "gamma", values, "zeta_ratio") == serial
        assert run_sweep(cfg, "gamma", values, "zeta_ratio", workers=2) == serial
        code = run(
            ["sweep", "--config", str(half_cfg), "--param", "gamma",
             "--values", "0.5,0.7,0.9", "--metric", "zeta_ratio", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 0
        with pytest.raises(ValueError, match="workers"):
            run_sweep(cfg, "gamma", values, "zeta_ratio", workers=0)

    def test_cli_sweep_command(self, half_cfg, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--config", str(half_cfg), "--param", "gamma",
             "--values", "0.5,0.7,0.9", "--metric", "zeta_ratio", "--out", str(out_csv)]
        )
        assert code == 0
        header, rows = read_csv(out_csv)
        assert header == ["value", "metric", "error"]
        assert len(rows) == 3


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "True"),
        (3, "3"),
        (np.int64(3), "3"),
        (0.1, "0.10000000000000001"),
        (np.float64(-0.0), "-0"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (np.float32(0.1), "0.1"),
        ("x", "x"),
    ],
    ids=["bool", "int", "int64", "float", "negative_zero", "nan", "inf", "float32", "str"],
)
def test_format_value_exact_strings(value, text):
    assert format_value(value) == text


def test_write_csv_follows_format_value_per_row(tmp_path):
    """Rows mixing floats, NumPy scalars, ints and labels in one column, more rows
    than one write holds, give the bytes of joining ``format_value`` per value."""
    values = [0.1, math.nan, "failed: 50%", np.float64(-0.0), 3, np.float32(0.1), np.int64(7), True, math.inf]
    rows = [(i, values[i % len(values)], 1.0 / (i + 1)) for i in range(10_000)]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["i", "value", "x"], iter(rows))
    want = "i,value,x\n" + "".join(",".join(map(format_value, row)) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")
