"""CLI subcommands: records, formats, precedence, exit codes, determinism."""

import json
import signal
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import pytest

from mmcvqkd import cli, source
from mmcvqkd.channel import ChannelParams, DetectorParams
from mmcvqkd.keyrate import RateParams, total_rate
from mmcvqkd.operations import apply_to_supermodes
from mmcvqkd.optimize import G_MIN, T_MAX, T_MIN, gain_cap
from mmcvqkd.source import SourceParams, make_spectrum

import golden
from golden import GOLDEN_RUNS


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging, if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each process pool a sweep asks for. The pool maps
    in this process and starts none."""
    sizes = []

    def serial_pool(max_workers):
        sizes.append(max_workers)
        return nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool)
    return sizes


class TestPoint:
    def test_single_mode_point_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "1.0",
             "--loss-db", "0"],
            capsys,
        )
        assert code == 0
        record = cli.parse_csv_records(out)[0]
        source = SourceParams(1.0, make_spectrum("single", 5))
        outcomes = apply_to_supermodes([], source)
        reference = total_rate(
            outcomes, ChannelParams(eta_e=1.0, epsilon=0.1), DetectorParams(), RateParams()
        )
        assert record.total_rate == reference.total
        assert record.evaluations == 1
        assert record.distance_km == 0.0

    def test_point_with_operation(self, capsys):
        code, out, _ = run_cli(
            ["point", "--scenario", "exp", "--op", "0pc", "--ksel", "2",
             "--gain", "1.5", "--t", "0.9,0.8", "--loss-db", "10"],
            capsys,
        )
        assert code == 0
        record = cli.parse_csv_records(out)[0]
        assert record.best_T == (0.9, 0.8)
        assert len(record.per_mode_rates) == 5
        assert record.per_mode_probs[2] == 1.0

    def test_extreme_loss_no_crash(self, capsys):
        code, out, _ = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "1.0",
             "--loss-db", "300"],
            capsys,
        )
        assert code == 0
        record = cli.parse_csv_records(out)[0]
        assert record.eta_e == pytest.approx(1e-30)
        assert 0.0 <= record.total_rate < 1e-12

    def test_ksel_exceeding_kmax_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["point", "--scenario", "exp", "--op", "0pc", "--ksel", "9",
             "--gain", "1.0", "--t", "0.9", "--loss-db", "10"],
            capsys,
        )
        assert code == 2
        assert "ksel" in err

    def test_wrong_transmissivity_count_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["point", "--scenario", "exp", "--op", "0pc", "--ksel", "2",
             "--gain", "1.0", "--t", "0.9", "--loss-db", "10"],
            capsys,
        )
        assert code == 2
        assert "t:" in err


class TestSweep:
    def test_monotone_decreasing_in_loss(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "single", "--op", "none",
             "--loss-db", "0:35:5"],
            capsys,
        )
        assert code == 0
        records = cli.parse_csv_records(out)
        assert [r.loss_db for r in records] == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]
        rates = [r.total_rate for r in records]
        assert all(x > y for x, y in zip(rates, rates[1:]))

    def test_memory_dominates_no_memory(self, capsys):
        args = ["sweep", "--scenario", "exp", "--op", "1ps", "--ksel", "1",
                "--loss-db", "0:20:10"]
        code, out_mem, _ = run_cli(args + ["--memory"], capsys)
        assert code == 0
        code, out_nomem, _ = run_cli(args + ["--no-memory"], capsys)
        assert code == 0
        for with_memory, without in zip(
            cli.parse_csv_records(out_mem), cli.parse_csv_records(out_nomem)
        ):
            assert without.total_rate <= with_memory.total_rate + 1e-15

    @pytest.mark.parametrize(
        "flags, workers",
        [(["--scenario", "single", "--op", "none", "--loss-db", "5:15:5"], "3"),
         (["--scenario", "exp", "--op", "0pc", "--ksel", "2", "--loss-db", "20:23:1",
           "--grid-points", "5"], "2")],
        ids=["single-none", "exp-0pc-ksel2"],
    )
    @pytest.mark.filterwarnings("error")
    def test_workers_agree_with_serial(self, tmp_path, flags, workers):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert cli.main(["sweep", *flags, "--out", str(serial)]) == 0
        assert cli.main(["sweep", *flags, "--out", str(parallel), "--workers", workers]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_pool_has_at_most_one_worker_per_loss(self, capsys, pool_sizes):
        args = ["sweep", "--scenario", "single", "--op", "none", "--loss-db", "5:15:5"]
        serial = run_cli(args, capsys)
        pooled = run_cli(args + ["--workers", "8"], capsys)
        assert pool_sizes == [3]
        assert pooled == serial

    def test_workers_above_the_ceiling_exit_2_before_forking(self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(cli, "optimize", lambda problem: pytest.fail("solved"))
        code, out, err = run_cli(
            ["sweep", "--scenario", "single", "--op", "none", "--loss-db", "5:15:5",
             "--workers", "100000"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: workers: must be <= MAX_WORKERS = {cli.MAX_WORKERS}, got 100000\n"
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_loss_past_the_underflow_exits_2_before_any_solve(
        self, capsys, monkeypatch, pool_sizes, tmp_path, workers
    ):
        monkeypatch.setattr(cli, "optimize", lambda problem: pytest.fail("solved"))
        out = tmp_path / "sweep.csv"
        out.write_text("previous results\n")
        code, stdout, err = run_cli(
            ["sweep", "--scenario", "exp", "--op", "0pc", "--ksel", "2", "--loss-db", "0:3300:10",
             "--workers", workers, "--out", str(out)],
            capsys,
        )
        assert code == 2 and stdout == ""
        assert err == "error: loss-db: loss 3240.0 dB rounds the channel transmissivity to 0\n"
        assert pool_sizes == []
        assert out.read_text() == "previous results\n"

    def test_unwritable_output_path_fails_before_compute(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--scenario", "single", "--op", "none",
             "--loss-db", "0:35:1", "--out", "/nonexistent-dir/sweep.csv"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("previous", ["previous results\n", None], ids=["kept", "not-created"])
    def test_failed_run_leaves_out_file_as_it_was(self, capsys, tmp_path, previous):
        out = tmp_path / "keep.csv"
        if previous is not None:
            out.write_text(previous)
        code, _, err = run_cli(["point", "--gain", "100", "--out", str(out)], capsys)
        assert code == 2 and "MAX_SUPERMODE_SQUEEZING" in err
        assert (out.read_text() if out.exists() else None) == previous

    def test_unwritable_trace_fails_before_compute(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "optimize", lambda problem: pytest.fail("optimized first"))
        out = tmp_path / "x.csv"
        out.write_text("previous results\n")
        trace = str(tmp_path / "missing" / "t.json")
        code, _, err = run_cli(["optimize", "--trace", trace, "--out", str(out)], capsys)
        assert code == 1 and err.startswith("error: ") and "t.json" in err
        assert out.read_text() == "previous results\n"

    def test_out_and_trace_as_one_file_exit_2_before_compute(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "optimize", lambda problem: pytest.fail("optimized first"))
        out, trace = str(tmp_path / "run.json"), f"{tmp_path}/./run.json"
        code, stdout, err = run_cli(["optimize", "--out", out, "--trace", trace], capsys)
        assert code == 2 and stdout == ""
        assert err == f"error: out and trace: {out!r} and {trace!r} are the same file\n"


class TestOutputFormats:
    def test_csv_round_trip_bit_exact(self, capsys):
        code, out, _ = run_cli(
            ["optimize", "--scenario", "exp", "--op", "0pc", "--ksel", "1",
             "--loss-db", "10"],
            capsys,
        )
        assert code == 0
        records = cli.parse_csv_records(out)
        assert cli.records_to_csv(records) == out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "0.9",
             "--loss-db", "10", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and payload[0]["scenario"] == "single"
        assert payload[0]["loss_db"] == 10.0

    @pytest.mark.parametrize(
        "flags, k_sel",
        [(["--op", "1pc", "--ksel", "2", "--loss-db", "22"], 2),
         (["--op", "none", "--loss-db", "0"], 0)],
        ids=["1pc-ksel2-22dB", "none-0dB"],
    )
    @pytest.mark.filterwarnings("error")
    def test_trace_stays_in_the_box(self, capsys, tmp_path, flags, k_sel):
        # Every evaluation after the grid_points^(1 + k_sel) grid is traced, the
        # trace file counts what the record counts, and no point leaves the box.
        # The NONE run's box-end probes evaluate the gain cap.
        trace = tmp_path / "trace.json"
        code, out, _ = run_cli(
            ["optimize", "--scenario", "exp", *flags, "--grid-points", "5", "--trace", str(trace)],
            capsys,
        )
        assert code == 0
        run = json.loads(trace.read_text())
        assert run["evaluations"] == cli.parse_csv_records(out)[0].evaluations
        assert run["refinement_trace"]
        assert all(set(point) == {"params", "rate"} for point in run["refinement_trace"])
        points = [point["params"] for point in run["refinement_trace"]]
        assert run["evaluations"] == 5 ** (1 + k_sel) + len(points)
        assert all(len(params) == 1 + k_sel for params in points)
        g_max = gain_cap(make_spectrum("exp", 5, 2.0))
        assert all(G_MIN <= g <= g_max and all(T_MIN <= t <= T_MAX for t in ts) for g, *ts in points)
        if k_sel == 0:
            assert any(g == g_max for g, in points), "no probe evaluated the gain cap"

    def test_saturating_gain_bound_is_named_error(self, capsys):
        code, out, err = run_cli(
            ["optimize", "--scenario", "exp", "--op", "none", "--g-max", "40",
             "--loss-db", "30"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "g_max 40.0" in err and "MAX_SUPERMODE_SQUEEZING = 2.5" in err

    def test_saturating_point_gain_is_named_error(self, capsys):
        code, out, err = run_cli(
            ["point", "--scenario", "exp", "--op", "none", "--gain", "25", "--loss-db", "30"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "gain 25.0" in err and "MAX_SUPERMODE_SQUEEZING = 2.5" in err
        assert "use gain <= 3.133805027104284" in err

    @pytest.mark.parametrize("command, flag", [("point", "--gain"), ("optimize", "--g-max")])
    def test_gain_at_the_squeezing_ceiling_runs(self, capsys, command, flag):
        # The single spectrum puts the whole gain on one supermode: G = r. The
        # next float above 2.5 is rejected (TestBoundaryChecks).
        args = [command, "--scenario", "single", "--op", "none", "--loss-db", "0", flag, "2.5"]
        assert run_cli(args, capsys)[0] == 0

    def test_non_finite_grid_is_named_error(self, capsys):
        # r = 10 at the top of the G axis once left NaN on the grid; the
        # squeezing ceiling now names the bound before the grid is evaluated.
        code, out, err = run_cli(
            ["optimize", "--op", "none", "--loss-db", "0", "--eps", "0", "--g-max", "10"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "g_max 10.0" in err and "MAX_SUPERMODE_SQUEEZING = 2.5" in err

    @pytest.mark.parametrize(
        "command, flags",
        [("point", []), ("optimize", ["--grid-points", "5"]),
         ("sweep", ["--grid-points", "5", "--loss-db", "0:10:10"])],
    )
    def test_none_records_no_operated_supermode(self, capsys, command, flags):
        # NONE operates no supermode, whatever --ksel says.
        code, out, _ = run_cli(
            [command, "--scenario", "exp", "--op", "none", "--ksel", "3", *flags], capsys
        )
        assert code == 0
        records = cli.parse_csv_records(out)
        assert records and all(record.k_sel == 0 and record.best_T == () for record in records)

    def test_bad_csv_header_is_named(self):
        with pytest.raises(ValueError, match="unrecognized CSV header"):
            cli.parse_csv_records("loss_db,eta_e\n10,0.1\n")

    def test_malformed_csv_row_is_named(self):
        header = cli.records_to_csv([])
        row = "10,0.5,50,exp,0pc,2,true,1.5,0.75;0.5,0.25,0.125;0.125,0.5;0.5,77"
        for bad, message in [
            ("1,2", "CSV row 1: expected 13 cells, got 2"),
            (row.replace("true", "yes"), "CSV row 1, column memory: 'yes'"),
            (row.replace("0.75;0.5", "0.75;;0.5"), "CSV row 1, column best_T: '0.75;;0.5'"),
            (row.replace(",2,", ",two,"), "CSV row 1, column k_sel: 'two'"),
        ]:
            with pytest.raises(ValueError, match=message):
                cli.parse_csv_records(header + bad + "\n")


class TestConfigPrecedence:
    def test_env_overrides_config_flags_override_env(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eps": 0.3, "nu": 1.2}))
        monkeypatch.setenv("MMCVQKD_EPS", "0.2")
        code, out, _ = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "1.0",
             "--loss-db", "0", "--config", str(config)],
            capsys,
        )
        assert code == 0
        record = cli.parse_csv_records(out)[0]
        # env eps=0.2 beats config eps=0.3; config nu=1.2 still applies
        source = SourceParams(1.0, make_spectrum("single", 5))
        outcomes = apply_to_supermodes([], source)
        expected = total_rate(
            outcomes, ChannelParams(eta_e=1.0, epsilon=0.2),
            DetectorParams(nu=1.2), RateParams(),
        )
        assert record.total_rate == expected.total

        monkeypatch.setenv("MMCVQKD_EPS", "0.2")
        code, out, _ = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "1.0",
             "--loss-db", "0", "--config", str(config), "--eps", "0.05"],
            capsys,
        )
        record = cli.parse_csv_records(out)[0]
        expected = total_rate(
            outcomes, ChannelParams(eta_e=1.0, epsilon=0.05),
            DetectorParams(nu=1.2), RateParams(),
        )
        assert record.total_rate == expected.total

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epsilon": 0.3}))
        code, _, err = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "1.0",
             "--loss-db", "0", "--config", str(config)],
            capsys,
        )
        assert code == 2
        assert "unknown field" in err

    @pytest.mark.parametrize(
        "config, field",
        [({"memory": "no"}, "memory must be a JSON boolean"),
         ({"ksel": "2"}, "ksel must be a JSON integer")],
    )
    def test_mistyped_config_value_is_usage_error(self, capsys, tmp_path, config, field):
        # A truthy string must not switch memory on, nor a quoted number crash.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["point", "--scenario", "exp", "--op", "none", "--gain", "1.0",
             "--loss-db", "0", "--config", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert field in err and "Traceback" not in err

    def test_unparsable_env_value_names_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("MMCVQKD_KSEL", "abc")
        code, out, err = run_cli(
            ["point", "--scenario", "single", "--op", "none", "--gain", "1.0", "--loss-db", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "MMCVQKD_KSEL" in err and "'abc'" in err

    def test_bad_loss_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--scenario", "single", "--op", "none", "--loss-db", "10:0:5"],
            capsys,
        )
        assert code == 2
        assert "loss-db" in err


class TestNumericSettings:
    @pytest.mark.parametrize(
        "command, flags, field",
        [("point", ["--attenuation", "0"], "attenuation"),
         ("sweep", ["--loss-db", "0:inf:1"], "loss-db"),
         ("point", ["--eps", "nan"], "eps"),
         ("point", ["--nu", "nan"], "nu"),
         ("sweep", ["--loss-db", "0:1e9:1e-9"], "loss-db"),
         ("sweep", ["--loss-db", "0:1e308:1e-300"], "loss-db"),
         ("point", ["--attenuation", "1e-310"], "attenuation"),
         ("sweep", ["--loss-db", "10", "--attenuation", "5e-324"], "attenuation"),
         ("optimize", ["--loss-db", "10", "--attenuation", "5e-324"], "attenuation"),
         # domain errors from the constructors the CLI calls, named by their setting
         ("point", ["--nu", "60"], "nu"),
         ("point", ["--eps", "-1"], "eps"),
         ("point", ["--loss-db", "-3"], "loss-db"),
         ("point", ["--op", "1pc", "--ksel", "1", "--t", "1.5"], "t"),
         ("point", ["--scenario", "exp", "--decay", "0"], "decay")],
        ids=["attenuation-zero", "loss-range-inf", "eps-nan", "nu-nan",
             "loss-range-too-many-points", "loss-range-overflow",
             "attenuation-infinite-distance-point", "attenuation-infinite-distance-sweep",
             "attenuation-infinite-distance-optimize", "nu-above-limit", "eps-negative",
             "loss-negative", "t-above-one", "decay-zero"],
    )
    def test_degenerate_value_is_named_usage_error(self, capsys, command, flags, field):
        args = [command, "--scenario", "single", "--op", "none"]
        if command == "point":
            args += ["--gain", "1.0", "--loss-db", "10"]
        # An unbounded loss range would build its point list for good.
        with time_limit(2.0):
            code, out, err = run_cli(args + flags, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}:")


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "args, env, field",
        [(["point"], {"MMCVQKD_MEMORY": "maybe"}, "MMCVQKD_MEMORY"),
         (["point", "--loss-db", "1:2"], {}, "loss-db"),
         (["point", "--loss-db", "a:2:1"], {}, "loss-db"),
         (["point", "--loss-db", "abc"], {}, "loss-db"),
         (["sweep", "--loss-db", "0:10:0"], {}, "loss-db"),
         (["point", "--kmax", "0"], {}, "kmax"),
         (["point", "--op", "0pc", "--t", "0.5,x"], {}, "t"),
         (["point", "--op", "none", "--t", "0.5"], {}, "t"),
         (["optimize", "--loss-db", "0:5:1"], {}, "loss-db"),
         (["point"], {"MMCVQKD_OP": "bogus"}, "op"),
         (["point", "--config", "missing.json"], {}, "config"),
         (["point", "--config", "array.json"], {}, "config"),
         (["point", "--nu", "50.00000000000001"], {}, "MAX_DETECTOR_NOISE"),
         (["optimize", "--nu", "50.00000000000001"], {}, "MAX_DETECTOR_NOISE"),
         (["point", "--eps", "1000.0000000000001"], {}, "MAX_EXCESS_NOISE"),
         (["optimize", "--eps", "1000.0000000000001"], {}, "MAX_EXCESS_NOISE"),
         (["optimize", "--grid-points", "1"], {}, "grid_points"),
         (["optimize", "--g-max", "0.005"], {}, "g_max"),
         (["point", "--eta-r", "1.5"], {}, "eta_r"),
         (["point", "--eta-d", "0"], {}, "eta_d"),
         (["point", "--eta-d", "0.0009"], {}, "MIN_DETECTION_EFFICIENCY"),
         (["point", "--eta-r", "0.49"], {}, "MIN_RECONCILIATION_EFFICIENCY"),
         (["point", "--gain", "-1"], {}, "gain"),
         (["point", "--gain", "2.5000000000000004"], {}, "MAX_SUPERMODE_SQUEEZING = 2.5"),
         (["optimize", "--g-max", "2.5000000000000004"], {}, "MAX_SUPERMODE_SQUEEZING = 2.5")],
        ids=["memory-env", "loss-two-parts", "loss-bad-start", "loss-not-a-number",
             "loss-zero-step", "kmax-zero", "t-not-a-number", "t-without-op",
             "optimize-loss-range", "op-env", "config-missing", "config-array",
             "point-nu-above-limit", "optimize-nu-above-limit",
             "point-eps-above-limit", "optimize-eps-above-limit", "grid-points-one",
             "g-max-below-g-min", "eta-r-above-one", "eta-d-zero", "eta-d-below-minimum",
             "eta-r-below-minimum", "gain-negative",
             "point-gain-above-limit", "optimize-g-max-above-limit"],
    )
    def test_bad_input_exits_2_naming_the_field(
        self, capsys, monkeypatch, tmp_path, args, env, field
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "array.json").write_text("[]")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("args, env", [
        (["point", "--kmax", "1000000000"], {}),
        (["optimize"], {"MMCVQKD_KMAX": "1000000000"}),
    ], ids=["flag", "env"])
    def test_kmax_above_ceiling_exits_2_before_allocating(self, capsys, monkeypatch, args, env):
        def refuse(*shape, **kwargs):
            raise AssertionError(f"allocated {shape}")
        for name in ("zeros", "full", "arange"):
            monkeypatch.setattr(source.np, name, refuse)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: kmax: must be in [1, MAX_K_MAX = 10000], got 1000000000\n"

    def test_kernel_points_above_the_grid_guard_exit_2_before_solving(self, capsys, monkeypatch):
        # NONE evaluates k_max * grid_points kernel points: 1e7, about 8 GB.
        monkeypatch.setattr(cli, "optimize", lambda problem: pytest.fail("solved"))
        code, out, err = run_cli(
            ["optimize", "--op", "none", "--kmax", "10000", "--grid-points", "1000"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: coarse grid of grid_points = 1000: ")
        assert "k_max = 10000 supermodes" in err and "MAX_GRID_SIZE = 2000000" in err

    @pytest.mark.parametrize(
        "value, memory",
        [("1", True), ("true", True), ("yes", True), ("on", True),
         ("0", False), ("false", False), ("no", False), ("off", False)],
    )
    def test_memory_variable_accepts_each_spelling(self, capsys, monkeypatch, value, memory):
        monkeypatch.setenv("MMCVQKD_MEMORY", value)
        code, out, _ = run_cli(["point"], capsys)
        assert code == 0
        assert cli.parse_csv_records(out)[0].memory is memory


COMMON_OPTIONS = {
    "-h", "--help", "--scenario", "--decay", "--kmax", "--ksel", "--op", "--memory",
    "--no-memory", "--clamp", "--no-clamp", "--loss-db", "--eps", "--nu", "--eta-d", "--eta-r",
    "--attenuation", "--out", "--format", "--config",
}
OPTIONS = {
    "point": COMMON_OPTIONS | {"--gain", "--t"},
    "sweep": COMMON_OPTIONS | {"--workers", "--grid-points", "--g-max"},
    "optimize": COMMON_OPTIONS | {"--grid-points", "--g-max", "--trace"},
    "verify": {"-h", "--help", "--tol-cm", "--tol-prob", "--tol-mi"},
}


class TestGoldenOutput:
    # Options that must leave the output of tests/data/cli_point.csv as it is,
    # and those each subcommand accepts or rejects.
    def test_each_subcommand_accepts_the_same_options(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        accepted = {
            command: {option for action in parser._actions for option in action.option_strings}
            for command, parser in commands.items()
        }
        assert accepted == OPTIONS

    @pytest.mark.parametrize(
        "args",
        [["point", "--workers", "7", "--grid-points", "3", "--g-max", "2"],
         ["optimize", "--workers", "2"]],
        ids=["point", "optimize"],
    )
    def test_flag_of_another_subcommand_is_rejected(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--scenario", "single", "--op", "none", "--loss-db", "10"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(args[1:]) in captured.err

    def test_sweep_settings_from_config_still_accepted_by_point(self, capsys, tmp_path):
        # One config file serves every subcommand.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": 7, "grid_points": 3, "g_max": 2.0}))
        code, out, _ = run_cli(GOLDEN_RUNS["cli_point.csv"] + ["--config", str(config)], capsys)
        assert code == 0
        assert out == golden.committed("cli_point.csv")[0]

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_sweep_variable_is_ignored_by_point(self, capsys, monkeypatch, value):
        # point takes no workers setting, so it neither parses nor checks the variable.
        monkeypatch.setenv("MMCVQKD_WORKERS", value)
        code, out, _ = run_cli(GOLDEN_RUNS["cli_point.csv"], capsys)
        assert code == 0
        assert out == golden.committed("cli_point.csv")[0]

    @pytest.mark.parametrize(
        "value, message",
        [("0", "error: workers: must be >= 1, got 0"),
         ("abc", "error: MMCVQKD_WORKERS: cannot parse 'abc' as int")],
    )
    def test_sweep_rejects_bad_workers_variable(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("MMCVQKD_WORKERS", value)
        code, out, err = run_cli(
            ["sweep", "--scenario", "single", "--op", "none", "--loss-db", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith(message)


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "all" in out and "passed" in out
        assert out.count("PASS") >= 10

    def test_tightened_tolerance_reports_tolerance_miss(self, capsys):
        code, out, err = run_cli(["verify", "--tol-cm", "1e-15", "--tol-prob", "1e-15"], capsys)
        assert code == 1
        assert "tolerance-miss" in out
        assert "structural-mismatch" not in out
        assert "FAILED" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--tol-cm", "--tol-prob", "--tol-mi"])
    def test_degenerate_tolerance_is_named_usage_error(self, capsys, flag, value):
        # A NaN or negative tolerance fails every check, an infinite one passes them all.
        code, out, err = run_cli(["verify", flag, value], capsys)
        assert code == 2
        assert out == ""  # no PASS or FAIL line
        assert err.startswith(f"error: {flag[2:]}: must be finite and >= 0")
