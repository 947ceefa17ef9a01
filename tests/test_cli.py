"""Config parsing, CLI subcommands, sweeps, determinism of artifacts."""

import math
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piezobeam import (
    BeamParameters,
    CflViolation,
    DegenerateCoupling,
    DuplicateKey,
    InvalidBudget,
    MalformedValue,
    MissingKey,
    NonPositiveParameter,
    ValidationError,
    derive_constants,
    evaluate_metric,
    parse_config,
    run_sweep,
)
from piezobeam import config as config_module, params as params_module
from piezobeam.cli import run
from piezobeam.config import FLOAT_KEYS, INT_KEYS, PHYSICAL_KEYS, RunConfig, load_config
from piezobeam.csvio import _CHUNK_ROWS, format_value, read_csv, write_csv
from piezobeam.frequency import transfer_closed
from piezobeam.observability import (
    OddApproximant,
    exponent_family,
    ingham_frame_bounds,
    near_unobservable_state,
    observability_quotient,
    odd_odd_approximants,
    quotient_bound,
)
from piezobeam.params import MIN_CELLS, classify_stability
from piezobeam.spectral import ModalCoefficients, StateFunctions, eigenvalues, output_energy, project
from piezobeam.timedomain import (
    Grid,
    SimConfig,
    _run_config,
    _time_step,
    decay_rate,
    simulate,
    sine_velocity_state,
)
from conftest import checkout_env

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
        assert cfg.k is None  # 1/(2*thickness), resolved by simulate
        dc = derive_constants(cfg.params)
        assert dc.zeta1 == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_default_gain_follows_thickness_without_the_parser(self):
        """An unset gain stays ``None`` and runs as ``1/(2*thickness)``; a given one is kept."""
        params = BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0, thickness=0.25)
        parsed = parse_config(MINIMAL.replace("thickness = 1", "thickness = 0.25") + "N = 64\nT = 2\n")
        assert RunConfig(params=params).k is None and parsed.k is None
        assert RunConfig(params=params, k=3.0).k == 3.0
        rate = evaluate_metric(parsed, "decay_rate")
        assert rate == evaluate_metric(replace(parsed, k=2.0), "decay_rate")
        assert rate != evaluate_metric(replace(parsed, k=3.0), "decay_rate")

    def test_missing_key(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("mu"))
        with pytest.raises(MissingKey, match="mu"):
            parse_config(text)

    def test_zero_gamma_rejected(self):
        with pytest.raises(DegenerateCoupling, match="line 5: gamma = 0 decouples"):
            parse_config(MINIMAL.replace("gamma = 1", "gamma = 0"))

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey, match="rho"):
            parse_config(MINIMAL + "rho = 2\n")

    def test_malformed_value(self):
        with pytest.raises(MalformedValue, match="line 2"):
            parse_config(MINIMAL.replace("rho = 1", "rho = one"))

    def test_first_bad_physical_key_in_field_order_is_named(self):
        """A physical value out of range is named before a later one that does not
        parse, and any physical error before any run option's."""
        text = MINIMAL.replace("rho = 1", "rho = -1").replace("beta = 1", "beta = one") + "J = 0\n"
        with pytest.raises(NonPositiveParameter, match="line 2: rho must be finite and > 0, got -1.0"):
            parse_config(text)
        with pytest.raises(MalformedValue, match="line 4: beta = 'one' is not a number"):
            parse_config(text.replace("rho = -1", "rho = 1"))
        with pytest.raises(NonPositiveParameter, match="line 9: J must be an integer >= 1"):
            parse_config(text.replace("rho = -1", "rho = 1").replace("beta = one", "beta = 1"))

    def test_each_key_checked_once(self, monkeypatch):
        """The seven physical keys are checked as the beam is built, not again by the
        parser; the eighth check is the default gain's."""
        checked = []

        def spy(key, value, where=""):
            checked.append(key)
            return check(key, value, where)

        check = params_module._check_option
        monkeypatch.setattr(params_module, "_check_option", spy)
        monkeypatch.setattr(config_module, "_check_option", spy)
        parse_config(MINIMAL)
        assert checked == list(PHYSICAL_KEYS) + ["k"]

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
            ("N = 15", NonPositiveParameter),  # below MIN_CELLS
            ("qmax = 0", InvalidBudget),
            ("T = -1", NonPositiveParameter),
            ("sample_dt = 0", NonPositiveParameter),
            ("tol = -1e-9", InvalidBudget),
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
        assert cfg.n >= MIN_CELLS
        assert (cfg.k is None or math.isfinite(cfg.k)) and 0 < cfg.cfl < 1


def _constants_rows(cfg):
    dc = derive_constants(cfg.params)
    return [(dc.alpha, dc.zeta1, dc.zeta2, dc.b1, dc.b2)]


def _observability_rows(cfg):
    approximants = odd_odd_approximants(derive_constants(cfg.params).ratio, count=3, qmax=cfg.qmax)
    return [(a.p, a.q, a.err, observability_quotient(near_unobservable_state(a, cfg.params), cfg.params, 10.0))
            for a in approximants]


def _snapshot_index_rows(cfg):
    cfg = replace(cfg, n=64, T=0.2)
    traj = _run_config(cfg, sine_velocity_state(Grid(cfg.n, cfg.params.length), 1), "closed", snapshots=True)
    return [(i, t, f"state_{i:04d}.csv") for i, (t, _) in enumerate(traj.snapshots)]


# each CLI table built from rows: its command, its file, its header and its rows from the library
_ROW_TABLES = [
    pytest.param(["constants", "--out", "out.csv"], "out.csv", ["alpha", "zeta1", "zeta2", "b1", "b2"],
                 _constants_rows, id="constants"),
    pytest.param(["spectrum", "--jmax", "8", "--out", "out.csv"], "out.csv", ["family", "sign", "j", "im_lambda"],
                 lambda cfg: [(m.family, m.sign, m.j, lam.imag) for m, lam in eigenvalues(cfg.params, 8)],
                 id="spectrum"),
    pytest.param(["observability", "--count", "3", "--T", "10", "--out", "out.csv"], "out.csv",
                 ["p", "q", "err", "quotient"], _observability_rows, id="observability"),
    pytest.param(["sweep", "--param", "gamma", "--values", "0.5,0,1.5", "--metric", "class", "--out", "out.csv"],
                 "out.csv", ["value", "metric", "error"],
                 lambda cfg: run_sweep(cfg, "gamma", [0.5, 0.0, 1.5], "class"), id="class_sweep"),
    pytest.param(["simulate", "--mode", "closed", "--N", "64", "--T", "0.2", "--initial", "sine:1",
                  "--out", "traj.csv", "--snapshots", "snaps"], "snaps/index.csv", ["index", "time", "file"],
                 _snapshot_index_rows, id="snapshot_index"),
]


@pytest.mark.parametrize("argv, name, header, rows", _ROW_TABLES)
def test_cli_table_bytes(argv, name, header, rows, tmp_path, monkeypatch, capsys):
    """Each table the CLI builds from rows holds, byte for byte, ``format_value`` of the
    library's own values joined by commas, one line per row."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "golden.cfg").write_text(MINIMAL)
    assert run([argv[0], "--config", "golden.cfg", *argv[1:]]) == 0
    table = rows(load_config("golden.cfg"))
    assert len(table) > 1 or argv[0] == "constants"
    want = ",".join(header) + "\n" + "".join(",".join(map(format_value, row)) + "\n" for row in table)
    assert (tmp_path / name).read_bytes() == want.encode("utf-8")


NON_UNIT = """\
rho = 1.3
alpha1 = 0.7
beta = 1.9
gamma = 0.4
mu = 0.8
length = 1.7
thickness = 0.3
"""


@pytest.mark.parametrize("jmax", [1, 8, 512])
@pytest.mark.parametrize("text", [MINIMAL, NON_UNIT], ids=["unit", "non_unit"])
def test_spectrum_csv_is_the_eigenvalue_rows(text, jmax, tmp_path, capsys):
    """``spectrum`` writes its columns straight from the frequency table, byte for byte
    the rows of :func:`eigenvalues` joined by ``format_value``."""
    (tmp_path / "beam.cfg").write_text(text)
    out = tmp_path / "spectrum.csv"
    assert run(["spectrum", "--config", str(tmp_path / "beam.cfg"), "--jmax", str(jmax), "--out", str(out)]) == 0
    rows = [(m.family, m.sign, m.j, lam.imag) for m, lam in eigenvalues(load_config(tmp_path / "beam.cfg").params, jmax)]
    want = "family,sign,j,im_lambda\n" + "".join(",".join(map(format_value, row)) + "\n" for row in rows)
    assert out.read_bytes() == want.encode("utf-8")


# (file, argv) in one order: a run without a flag follows a run with it, a failing run a good one
_ONE_PROCESS = [
    ("spec8.csv", ["spectrum", "--jmax", "8"]),
    ("spec.csv", ["spectrum"]),
    ("t5.csv", ["transfer", "--n-points", "5"]),
    ("t.csv", ["transfer"]),
    ("bad.csv", ["simulate", "--N", "8"]),
    ("sim.csv", ["simulate", "--T", "0.5"]),
    ("obs.csv", ["observability", "--count", "2", "--T", "10"]),
]


def test_runs_in_one_process_write_what_fresh_processes_write(tmp_path, monkeypatch, capsys):
    """``run`` reuses one parser: calls in one process, forward and reversed, each
    give the exit code, summary line and bytes of a run in a fresh interpreter, and a
    run without a flag gets that flag's default (the config's ``J``, 2,001 points)."""
    fresh, forward, backward = (tmp_path / d for d in ("fresh", "forward", "backward"))
    want = {}
    for where in (fresh, forward, backward):
        where.mkdir()
        (where / "beam.cfg").write_text(MINIMAL)
    for name, argv in _ONE_PROCESS:
        done = subprocess.run([sys.executable, "-m", "piezobeam.cli", *argv, "--config", "beam.cfg", "--out", name],
                              cwd=fresh, env=checkout_env(), capture_output=True, text=True)
        want[name] = done.returncode, done.stdout
    for where, order in ((forward, _ONE_PROCESS), (backward, _ONE_PROCESS[::-1])):
        monkeypatch.chdir(where)
        for name, argv in order:
            code = run([*argv, "--config", "beam.cfg", "--out", name])
            assert (code, capsys.readouterr().out) == want[name], (where.name, name)
        for name, _ in _ONE_PROCESS:
            assert (where / name).exists() == (fresh / name).exists(), (where.name, name)
            if (fresh / name).exists():
                assert (where / name).read_bytes() == (fresh / name).read_bytes(), (where.name, name)
    assert want["bad.csv"][0] == 2 and not (fresh / "bad.csv").exists()
    assert len(read_csv(fresh / "spec.csv")[1]) == 4 * RunConfig.J
    assert len(read_csv(fresh / "t.csv")[1]) == 2001


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

    def test_transfer_csv_bytes_across_a_chunk(self, half_cfg, tmp_path, capsys):
        """5,000 rows cross a chunk of the writer; the bytes are ``write_csv``'s on list
        columns, which print ``format_value`` of each value."""
        out_csv = tmp_path / "freq.csv"
        assert run(["transfer", "--config", str(half_cfg), "--s1", "0.5", "--im-max", "40",
                    "--n-points", "5000", "--out", str(out_csv)]) == 0
        s = np.empty(5000, dtype=complex)
        s.real, s.imag = 0.5, np.linspace(-40.0, 40.0, 5000)
        g = transfer_closed(s, load_config(str(half_cfg)).params)
        want = tmp_path / "want.csv"
        write_csv(want, ["re_s", "im_s", "re_G", "im_G", "abs_G"],
                  columns=[list(column) for column in (s.real, s.imag, g.real, g.imag, np.abs(g))])
        assert out_csv.read_bytes() == want.read_bytes()

    def test_simulate_records_at_the_csv_stride(self, half_cfg, tmp_path, capsys):
        """The CSV holds every recorded row of a run at the CSV's stride; ``steps=`` counts
        time steps and ``decay_rate`` is fitted on the CSV's columns."""
        out_csv = tmp_path / "traj.csv"
        assert run(["simulate", "--config", str(half_cfg), "--mode", "closed", "--N", "128",
                    "--T", "3", "--initial", "sine:1", "--out", str(out_csv)]) == 0
        summary = dict(field.split("=", 1) for field in capsys.readouterr().out.split() if "=" in field)
        cfg = load_config(str(half_cfg))
        grid = Grid(128, cfg.params.length)
        sim = SimConfig(mode="closed", T=3.0, cfl=cfg.cfl, k=cfg.k)
        every = simulate(sine_velocity_state(grid, 1), cfg.params, sim)
        stride = round(cfg.sample_dt / every.dt)
        assert stride > 1
        traj = simulate(sine_velocity_state(grid, 1), cfg.params, replace(sim, energy_stride=stride))
        header, rows = read_csv(out_csv)
        assert header == ["time", "energy", "y"]
        columns = np.array(rows, dtype=float).T
        np.testing.assert_array_equal(columns, [traj.t, traj.energy, traj.y])
        assert int(summary["steps"]) == every.t.size - 1
        assert summary["decay_rate"] == f"{decay_rate(columns[1], columns[0])[0]:.6g}"

    def test_snapshot_bytes(self, half_cfg, tmp_path, capsys):
        """There is one state file per row of the trajectory CSV, ``index.csv`` carries the
        CSV's time strings, and a state file has the bytes of ``write_csv`` on the fields of
        the ``GridState`` at that row, as list columns."""
        snap_dir = tmp_path / "snaps"
        out_csv = tmp_path / "a.csv"
        assert run(["simulate", "--config", str(half_cfg), "--mode", "closed", "--N", "128",
                    "--T", "0.2", "--initial", "sine:1", "--out", str(out_csv),
                    "--snapshots", str(snap_dir)]) == 0
        cfg = load_config(str(half_cfg))
        grid = Grid(128, cfg.params.length)
        sim = SimConfig(mode="closed", T=0.2, cfl=cfg.cfl, k=cfg.k, snapshots=True)
        stride = round(cfg.sample_dt / _time_step(grid, cfg.params, sim)[0])
        snapshots = simulate(sine_velocity_state(grid, 1), cfg.params, replace(sim, energy_stride=stride)).snapshots
        times = [row[0] for row in read_csv(out_csv)[1]]
        header, index = read_csv(snap_dir / "index.csv")
        assert header == ["index", "time", "file"]
        assert [row[1] for row in index] == times and times[0] == "0"
        assert len(snapshots) == len(times) > 2
        assert sorted(path.name for path in snap_dir.iterdir()) == sorted([row[2] for row in index] + ["index.csv"])
        want = tmp_path / "want.csv"
        for i, (_, state) in enumerate(snapshots):
            write_csv(want, ["x", "v", "p", "vdot", "pdot"],
                      columns=[list(column) for column in (state.grid.nodes, state.v, state.p, state.vdot, state.pdot)])
            assert (snap_dir / f"state_{i:04d}.csv").read_bytes() == want.read_bytes()

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
            (["transfer", "--n-points", "0"], "NonPositiveParameter: --n-points must be an integer >= 1, got 0"),
            (["simulate", "--N", "64", "--k", "nan"], "MalformedValue: --k: k = 'nan' is not a finite number"),
            (["simulate", "--N", "64", "--T", "inf"], "MalformedValue: --T: T = 'inf' is not a finite number"),
            (["observability", "--T", "inf"], "MalformedValue: --T: T = 'inf' is not a finite number"),
            (["observability", "--T", "nan"], "MalformedValue: --T: T = 'nan' is not a finite number"),
        ],
    )
    def test_bad_numeric_flag_exits_2(self, argv, message, half_cfg, tmp_path, capsys):
        """A flag that is not finite or out of range is named and writes nothing."""
        out_csv = tmp_path / "out.csv"
        assert run(argv + ["--config", str(half_cfg), "--out", str(out_csv)]) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--N", "8"),
            ("simulate", "--N", "2.5"),
            ("simulate", "--cfl", "1.5"),
            ("simulate", "--T", "-1"),
            ("simulate", "--k", "nan"),
            ("spectrum", "--jmax", "0"),
            ("classify", "--qmax", "0"),
            ("classify", "--tol", "nan"),
            ("observability", "--T", "0"),
        ],
    )
    def test_key_flag_follows_its_key_rule(self, command, flag, value, half_cfg, tmp_path, capsys):
        """A flag that sets a config key fails as that key's line would, with the same
        class and the flag in place of the line number, and writes nothing."""
        key = "J" if flag == "--jmax" else flag[2:]
        with pytest.raises(ValidationError) as as_line:
            parse_config(HALF + f"{key} = {value}\n")
        out = [] if command == "classify" else ["--out", str(tmp_path / "out.csv")]
        assert run([command, "--config", str(half_cfg), flag, value] + out) == 2
        captured = capsys.readouterr()
        assert f"error: {type(as_line.value).__name__}: {flag}: " in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == [half_cfg]

    def test_integral_float_flag_is_accepted(self, half_cfg, tmp_path, capsys):
        """``--N 128.0`` is ``N = 128``, as a config line would read it."""
        paths = [tmp_path / "int.csv", tmp_path / "float.csv"]
        for n, path in zip(["128", "128.0"], paths):
            assert run(["simulate", "--config", str(half_cfg), "--N", n, "--T", "0.2",
                        "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "preset, message",
        [
            ("sine:0", "NonPositiveParameter: --initial 'sine:0': mode index j must be an integer >= 1, got 0"),
            ("sine:-2", "mode index j must be an integer >= 1, got -2"),
            ("oddpair:2,4", "InvalidBudget: --initial 'oddpair:2,4': need coprime p, q; got (2, 4)"),
            ("oddpair:3,9", "InvalidBudget: --initial 'oddpair:3,9': need coprime p, q; got (3, 9)"),
            ("oddpair:-1,3", "InvalidBudget: --initial 'oddpair:-1,3': p must be an integer >= 1, got -1"),
            ("eigenmode:3,1", "NonPositiveParameter: --initial 'eigenmode:3,1': family must be 1 or 2, got 3"),
            ("eigenmode:1,0",
             "NonPositiveParameter: --initial 'eigenmode:1,0': mode index j must be an integer >= 1, got 0"),
            ("eigenmode:1", "MalformedValue: --initial 'eigenmode:1' is not of the form eigenmode:F,J"),
            ("eigenmode:1,2,3", "MalformedValue: --initial 'eigenmode:1,2,3' is not of the form eigenmode:F,J"),
            ("sine:abc", "MalformedValue: --initial 'sine:abc' is not of the form sine:J"),
            ("sine:2.0", "MalformedValue: --initial 'sine:2.0' is not of the form sine:J"),
            ("oddpair:", "MalformedValue: --initial 'oddpair:' is not of the form oddpair:P,Q"),
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
        assert "MalformedValue: --tol: tol = 'inf' is not a finite number" in captured.err
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


_BEAM = BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0)

# every library home of each key, as calls of the value; a physical key is checked where
# a beam is built (by the constructor and by replace), sample_dt where a run is sampled
_LIBRARY = {
    **{key: [lambda v, key=key: BeamParameters(**{**asdict(_BEAM), key: v}),
             lambda v, key=key: replace(_BEAM, **{key: v})] for key in PHYSICAL_KEYS},
    "J": [lambda v: eigenvalues(_BEAM, v), lambda v: project(StateFunctions.zero(), _BEAM, v),
          lambda v: exponent_family(_BEAM, v)],
    "N": [lambda v: Grid(v)],
    "qmax": [lambda v: classify_stability(derive_constants(_BEAM), qmax=v),
             lambda v: odd_odd_approximants(0.618, 3, qmax=v)],
    "tol": [lambda v: classify_stability(derive_constants(_BEAM), tol=v)],
    "T": [lambda v: SimConfig(T=v), lambda v: output_energy(ModalCoefficients.zeros(2), _BEAM, v),
          lambda v: quotient_bound(OddApproximant(p=1, q=3, err=0.1, cq2=0.9), _BEAM, v),
          lambda v: ingham_frame_bounds(exponent_family(_BEAM, 2), v)],
    "k": [lambda v: SimConfig(k=v)],
    "cfl": [lambda v: SimConfig(cfl=v)],
    "sample_dt": [lambda v: _run_config(RunConfig(_BEAM, sample_dt=v), sine_velocity_state(Grid(16), 1))],
}
_LIBRARY["length"].append(lambda v: Grid(64, v))
# the subcommand and flag that set each key that has a flag
_FLAGS = {"J": [("spectrum", "--jmax")], "N": [("simulate", "--N")], "k": [("simulate", "--k")],
          "cfl": [("simulate", "--cfl")], "qmax": [("classify", "--qmax")], "tol": [("classify", "--tol")],
          "T": [("simulate", "--T"), ("observability", "--T")]}
# one bad value per failure kind of each key, and the class that rejects it
_BAD_VALUES = [
    *[(key, text, error) for key in PHYSICAL_KEYS
      for text, error in (("-1", NonPositiveParameter), ("0", NonPositiveParameter), ("inf", MalformedValue))
      if (key, text) != ("gamma", "0")],
    ("gamma", "0", DegenerateCoupling),
    ("J", "0", NonPositiveParameter), ("J", "2.5", MalformedValue),
    ("N", "8", NonPositiveParameter), ("N", "2.5", MalformedValue),
    ("qmax", "0", InvalidBudget), ("qmax", "2.5", MalformedValue),
    ("tol", "-1", InvalidBudget), ("tol", "inf", MalformedValue),
    ("T", "-1", NonPositiveParameter), ("T", "nan", MalformedValue),
    ("k", "inf", MalformedValue),
    ("cfl", "1.5", CflViolation), ("cfl", "0", CflViolation), ("cfl", "nan", MalformedValue),
    ("sample_dt", "-1", NonPositiveParameter), ("sample_dt", "0", NonPositiveParameter),
    ("sample_dt", "nan", MalformedValue), ("sample_dt", "inf", MalformedValue),
]


class TestOneRulePerValue:
    """A bad value gets one class whether it comes from a config line, the key's flag or a
    library call, and each message names the key."""

    def test_validation_errors_are_value_errors(self):
        assert issubclass(ValidationError, ValueError)

    def test_every_key_with_a_library_home_is_covered(self):
        assert set(_LIBRARY) == set(PHYSICAL_KEYS + INT_KEYS + FLOAT_KEYS)
        assert {key for key, _, _ in _BAD_VALUES} == set(_LIBRARY)

    @pytest.mark.parametrize("key, text, error", _BAD_VALUES)
    def test_line_flag_and_library_agree(self, key, text, error, tmp_path, capsys):
        lines = [line for line in HALF.splitlines() if not line.startswith(f"{key} =")]
        config = "\n".join(lines + [f"{key} = {text}"]) + "\n"
        with pytest.raises(error) as as_line:
            parse_config(config)
        assert type(as_line.value) is error
        assert str(as_line.value).startswith(f"line {len(lines) + 1}: {key} ")

        path = tmp_path / "beam.cfg"
        path.write_text(HALF)
        for command, flag in _FLAGS.get(key, []):
            out = [] if command == "classify" else ["--out", str(tmp_path / "out.csv")]
            assert run([command, "--config", str(path), flag, text] + out) == 2
            assert f"error: {error.__name__}: {flag}: {key} " in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [path]

        value = int(text) if text.lstrip("-").isdigit() and key in INT_KEYS else float(text)
        for call in _LIBRARY[key]:
            with pytest.raises(error) as as_call:
                call(value)
            assert type(as_call.value) is error
            assert str(as_call.value).startswith(f"{key} ")


class TestSweeps:
    def test_zeta_ratio_sweep_matches_serial(self, tmp_path):
        cfg = parse_config(MINIMAL)
        values = list(np.linspace(0.2, 2.0, 16))
        rows = run_sweep(cfg, "gamma", values, "zeta_ratio")
        assert [r[0] for r in rows] == values
        ratios = [r[1] for r in rows]
        assert all(e == "" for _, _, e in rows)
        for value, ratio in zip(values, ratios):
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
            write_csv(path, ["value", "metric", "error"], columns=zip(*rows))
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
        "values, named",
        [("0.5,abc", "'abc' is not a number"), ("abc", "'abc' is not a number"),
         ("0.5,1e", "'1e' is not a number"), (",", "',' holds no value"), ("", "'' holds no value"),
         (" , ", "' , ' holds no value")],
    )
    def test_cli_sweep_names_bad_values(self, half_cfg, tmp_path, capsys, monkeypatch, values, named):
        """A ``--values`` entry that is not a number, or a list with none, is
        ``MalformedValue`` naming the flag, raised before any point runs and
        before the CSV is opened."""
        points = []
        monkeypatch.setattr("piezobeam.cli.run_sweep", lambda *args, **kwargs: points.append(args))
        out_csv = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", str(half_cfg), "--param", "gamma",
                    "--values", values, "--metric", "zeta_ratio", "--out", str(out_csv)])
        assert code == 2
        assert capsys.readouterr().err == f"error: MalformedValue: --values: {named}\n"
        assert points == [] and not out_csv.exists()

    def test_cli_sweep_out_of_range_values_are_row_errors(self, half_cfg, tmp_path, capsys):
        """Values that parse but are not finite or out of range fail their own rows;
        blank entries are skipped."""
        out_csv = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", str(half_cfg), "--param", "gamma",
                    "--values", "0.5,nan,,-1,inf", "--metric", "zeta_ratio", "--out", str(out_csv)])
        assert code == 0
        header, rows = read_csv(out_csv)
        assert [row[0] for row in rows] == ["0.5", "nan", "-1", "inf"]
        assert rows[0][2] == "" and all(row[1] == "nan" and row[2] for row in rows[1:])
        assert "(3 failed)" in capsys.readouterr().out

    def test_too_few_cells_exits_2(self, tmp_path, capsys):
        """``N`` below ``MIN_CELLS`` fails at parse time, naming its line, instead of
        leaving NaN rows in a decay-rate sweep."""
        path = tmp_path / "coarse.cfg"
        path.write_text(MINIMAL + "N = 8\n")
        out_csv = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(path), "--param", "gamma", "--values", "0.5,0.9",
                    "--metric", "decay_rate", "--out", str(out_csv)]) == 2
        assert "line 9: N must be an integer >= 16, got 8" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_decay_rate_sweep_fits_the_rows_simulate_writes(self, tmp_path, capsys):
        """The ``decay_rate`` metric is the fit of the CSV that ``simulate --mode closed``
        writes from the default bump, bitwise, and the sweep row prints as the summary's rate."""
        path = tmp_path / "half.cfg"
        path.write_text(HALF + "N = 128\nT = 3\n")
        cfg = load_config(str(path))
        traj_csv, sweep_csv = tmp_path / "traj.csv", tmp_path / "sweep.csv"
        assert run(["simulate", "--config", str(path), "--mode", "closed", "--out", str(traj_csv)]) == 0
        summary = dict(field.split("=", 1) for field in capsys.readouterr().out.split() if "=" in field)
        assert run(["sweep", "--config", str(path), "--param", "gamma", "--values", repr(cfg.params.gamma),
                    "--metric", "decay_rate", "--out", str(sweep_csv)]) == 0
        columns = np.array(read_csv(traj_csv)[1], dtype=float).T
        rate = evaluate_metric(cfg, "decay_rate")
        assert rate == decay_rate(columns[1], columns[0])[0]
        [(_, row_rate, error)] = read_csv(sweep_csv)[1]
        assert error == "" and float(row_rate) == rate
        assert summary["decay_rate"] == f"{float(row_rate):.6g}"

    def test_short_run_is_a_row_error(self):
        """A ``T`` that gives fewer than 10 recorded rows fails on its own row (here 8 rows,
        where a fixed stride of 8 steps would give 36)."""
        cfg = parse_config(MINIMAL + "N = 512\nT = 0.3\n")
        [(_, rate, error)] = run_sweep(cfg, "gamma", [1.0], "decay_rate")
        assert math.isnan(rate) and error == "ValueError: need aligned series of length >= 10"

    @pytest.mark.parametrize("sample_dt, error", [
        (-1.0, "NonPositiveParameter: sample_dt must be finite and > 0, got -1.0"),
        (0.0, "NonPositiveParameter: sample_dt must be finite and > 0, got 0.0"),
        (math.nan, "MalformedValue: sample_dt must be finite and > 0, got nan"),
        (math.inf, "MalformedValue: sample_dt must be finite and > 0, got inf"),
    ], ids=["negative", "zero", "nan", "inf"])
    def test_bad_sample_dt_is_a_row_error(self, sample_dt, error):
        """A library-built ``sample_dt`` follows its key's rule on each point's row, so an
        infinite one fails its row instead of aborting the sweep."""
        cfg = replace(parse_config(MINIMAL + "N = 64\nT = 1\n"), sample_dt=sample_dt)
        [(_, rate, message)] = run_sweep(cfg, "gamma", [1.0], "decay_rate")
        assert math.isnan(rate) and message == error

    def test_overflowing_default_gain_is_a_row_error(self):
        """A point whose default ``1/(2*thickness)`` overflows fails on its own row."""
        rows = run_sweep(parse_config(MINIMAL + "N = 64\nT = 1\n"), "thickness", [1e-320, 1.0], "decay_rate")
        assert rows[0][2] == "MalformedValue: k must be a finite number, got inf"
        assert math.isnan(rows[0][1]) and rows[1][2] == ""

    @pytest.mark.parametrize("gain", [pytest.param("", id="default"), pytest.param("k = 0.8\n", id="given")])
    def test_thickness_sweep_gain(self, gain):
        """An unset gain is each point's own ``1/(2h)``, as in a config parsed at that
        thickness; a given ``k`` stays fixed.  The decay rate sees the difference."""
        text = MINIMAL + "N = 128\nT = 6\n" + gain
        base = parse_config(text)
        for value, rate, error in run_sweep(base, "thickness", [0.5, 2.0], "decay_rate"):
            point = parse_config(text.replace("thickness = 1", f"thickness = {value}"))
            assert point.k == (0.8 if gain else None)
            assert error == "" and rate == evaluate_metric(point, "decay_rate")
            held = RunConfig(params=point.params, n=base.n, T=base.T, k=0.8 if gain else 0.5)
            assert (rate == evaluate_metric(held, "decay_rate")) == bool(gain)


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


@pytest.mark.parametrize(
    "rows",
    [
        [(i / 7.0, -1.0 / (i + 1), math.pi * i) for i in range(_CHUNK_ROWS + 1)],
        [(i, f"f{i}", i / 3.0) if i % 3 else (0.1, i, "x") for i in range(50)],
        list(zip(np.linspace(-1.0, 1.0, 9), np.arange(9), np.float32(0.1) * np.arange(9))),
        [],
    ],
    ids=["floats_across_a_chunk", "signature_changes_mid_chunk", "numpy_scalars", "empty"],
)
def test_write_csv_equals_format_value_per_value(tmp_path, rows):
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c"], columns=zip(*rows))
    want = "a,b,c\n" + "".join(",".join(map(format_value, row)) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


def test_write_csv_follows_format_value_per_row(tmp_path):
    """Columns mixing floats, NumPy scalars, ints and labels, more rows than one write
    holds, give the bytes of joining ``format_value`` per value."""
    values = [0.1, math.nan, "failed: 50%", np.float64(-0.0), 3, np.float32(0.1), np.int64(7), True, math.inf]
    rows = [(i, values[i % len(values)], 1.0 / (i + 1)) for i in range(10_000)]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["i", "value", "x"], columns=zip(*rows))
    want = "i,value,x\n" + "".join(",".join(map(format_value, row)) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                1e308, -1e308, 0.1, 1.0 / 3.0]
_LABELS = ["", "x", "failed: 50%", "DegenerateCoupling: gamma = 0"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    length=st.sampled_from([0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]),
    kinds=st.lists(st.sampled_from(["float64", "int64", "float32", "object", "list"]), min_size=1, max_size=5),
    floats=st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=8),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_equals_format_value_of_columns(tmp_path, length, kinds, floats, ints, seed):
    """Float64 columns (nan, infinities, -0.0, subnormals, +-1e308), int64 columns over the
    whole range (printed by ``%d``), float32, object and list columns, at lengths around a
    chunk, give the bytes of joining ``format_value`` over each row's values."""
    rng = np.random.default_rng(seed)
    mixed = np.array(floats + ints + _LABELS, dtype=object)
    with np.errstate(over="ignore"):  # a float beyond float32's range is an infinity there
        narrow = np.array(floats, dtype=np.float64).astype(np.float32)
    pools = {"float64": np.array(floats, dtype=np.float64), "int64": np.array(ints, dtype=np.int64),
             "float32": narrow, "object": mixed, "list": mixed}
    columns = [rng.choice(pools[kind], length) for kind in kinds]
    columns = [column.tolist() if kind == "list" else column for kind, column in zip(kinds, columns)]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "columns.csv"
    write_csv(path, header, columns=columns)
    want = ",".join(header) + "\n" + "".join(",".join(map(format_value, row)) + "\n" for row in zip(*columns))
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize(
    "second, text",
    [
        (np.float32([0.1, 0.2]), ["0.1", "0.2"]),
        (np.array([0.1, "x"], dtype=object), ["0.10000000000000001", "x"]),
        (np.array([True, False]), ["True", "False"]),
        ([0.1, 7], ["0.10000000000000001", "7"]),
    ],
    ids=["float32", "object", "bool", "list"],
)
def test_write_csv_prints_other_columns_by_format_value(tmp_path, second, text):
    """A column that is neither float64 nor integer prints ``format_value`` of each value:
    a float32 with its own shortest digits, not those of its float64 widening."""
    path = tmp_path / "other.csv"
    write_csv(path, ["a", "b"], columns=[np.zeros(2), second])
    assert path.read_text() == f"a,b\n0,{text[0]}\n0,{text[1]}\n"


@pytest.mark.parametrize(
    "second, message",
    [
        (np.zeros((2, 1)), r"column 'b' must be 1-d, got shape \(2, 1\)"),
        (np.zeros(3), "column 'b' has 3 rows, not 2"),
        (range(1), "column 'b' has 1 rows, not 2"),
    ],
    ids=["two_d", "unequal_length", "short_range"],
)
def test_write_csv_rejects_other_columns(tmp_path, second, message):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(path, ["a", "b"], columns=[np.zeros(2), second])
    assert not path.exists()


def test_write_csv_takes_columns_by_keyword_only(tmp_path):
    """Rows passed where the columns went raise, rather than print transposed."""
    path = tmp_path / "rows.csv"
    with pytest.raises(TypeError):
        write_csv(path, ["a", "b"], [(1, 2), (3, 4)])
    assert not path.exists()
    write_csv(path, ["a", "b"], columns=[(1, 2), (3, 4)])
    assert path.read_bytes() == b"a,b\n1,3\n2,4\n"


def test_write_csv_needs_one_name_per_column(tmp_path):
    """A column count other than the header's is an error before the file is opened; no
    columns at all is a table of no rows, as ``zip(*rows)`` of no rows gives."""
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="one header name per column, got 2 for 1"):
        write_csv(path, ["a", "b"], columns=[np.zeros(2)])
    with pytest.raises(ValueError, match="one header name per column, got 1 for 2"):
        write_csv(path, ["a"], columns=zip(*[(1, 2)]))
    assert not path.exists()
    write_csv(path, ["a", "b"], columns=zip(*[]))
    assert path.read_bytes() == b"a,b\n"
