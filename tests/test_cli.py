import csv
import os
import subprocess
import sys
from dataclasses import fields

import pytest
from criteria import CLI_CONFIG, CLI_ROWS, cli_name

from aasim import sim as sim_mod
from aasim.cli import main
from aasim.config import ConfigError, SimConfig
from aasim.metrics import CSV_COLUMNS
from aasim.workloads import dht

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_small_cfg(tmp_path, **extra):
    lines = {**CLI_CONFIG, **extra}
    path = tmp_path / "small.cfg"
    path.write_text("".join("%s = %s\n" % (k, v) for k, v in lines.items()))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_dht_writes_csv_with_fixed_schema(tmp_path):
    cfg = write_small_cfg(tmp_path)
    out = str(tmp_path / "r.csv")
    rc = main(["dht", "--config", cfg, "--scheme", "aa-poll", "--seed", "1", "--out", out])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == CSV_COLUMNS
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["scheme"] == "aa-poll"
    assert row["procs"] == "4"
    assert int(row["ops"]) == 160
    assert float(row["sim_time_ns"]) > 0


def test_dht_is_deterministic_for_fixed_seed(tmp_path):
    cfg = write_small_cfg(tmp_path)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["dht", "--config", cfg, "--scheme", "rma", "--seed", "3", "--out", a]) == 0
    assert main(["dht", "--config", cfg, "--scheme", "rma", "--seed", "3", "--out", b]) == 0
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()


def test_dht_prints_csv_to_stdout(tmp_path, capsys):
    cfg = write_small_cfg(tmp_path)
    assert main(["dht", "--config", cfg, "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_flag_overrides_beat_config_file(tmp_path):
    cfg = write_small_cfg(tmp_path, scheme="rma", r_cols=0.1)
    out = str(tmp_path / "r.csv")
    assert main(["dht", "--config", cfg, "--r-cols", "0.25", "--seed", "1", "--out", out]) == 0
    header, rows = read_rows(out)
    row = dict(zip(header, rows[0]))
    assert row["scheme"] == "rma"  # from the file
    assert row["r_cols"] == "0.25"  # overridden


def test_missing_config_file_fails(capsys):
    assert main(["dht", "--config", "/no/such/file.cfg"]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_non_text_config_file_fails(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"seed = 1\n\xd0\xff\xfe\n")
    assert main(["dht", "--config", str(path)]) == 2
    assert "not text" in capsys.readouterr().err


def test_bad_config_value_fails(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("r_cols = 1.5\n")
    assert main(["dht", "--config", str(path)]) == 2
    assert "r_cols" in capsys.readouterr().err


def test_unknown_scheme_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dht", "--scheme", "bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_counter_row_carries_variant_label(tmp_path):
    out = str(tmp_path / "c.csv")
    rc = main(
        ["counter", "--scheme", "rma-atomics", "--procs", "4", "--seed", "2",
         "--accesses", "80", "--pages", "8", "--out", out]
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert dict(zip(header, rows[0]))["scheme"] == "rma-atomics"


@pytest.mark.parametrize("scheme,accesses,remote_ops", [
    ("allreduce", "50", 54),  # 50 accesses, 2 fences, 2 vector pages
    ("rma-atomics", "50", 101),  # 50 accesses, 50 counter bumps, 1 fence
    ("rma-atomics", "0", 1),  # the counts of 300 pages read back, all 0
])
def test_counter_runs_past_256_pages(capsys, scheme, accesses, remote_ops):
    argv = ["counter", "--procs", "2", "--pages", "300", "--scheme", scheme]
    assert main(argv + ["--accesses", accesses]) == 0
    captured = capsys.readouterr()
    header, row = [line.split(",") for line in captured.out.splitlines()]
    row = dict(zip(header, row))
    assert (row["ops"], row["remote_ops"]) == (accesses, str(remote_ops))
    assert captured.err == ""


def test_getlog_rejects_other_proc_counts(capsys):
    assert main(["getlog", "--procs", "5", "--gets", "10"]) == 2
    assert "2 procs" in capsys.readouterr().err


def test_checkpoint_and_sort_rows(tmp_path):
    out = str(tmp_path / "k.csv")
    rc = main(["checkpoint", "--procs", "4", "--pages", "32", "--writes", "10",
               "--seed", "4", "--out", out])
    assert rc == 0
    header, rows = read_rows(out)
    assert dict(zip(header, rows[0]))["scheme"] == "checkpoint"

    out2 = str(tmp_path / "s.csv")
    rc = main(["sort", "--scheme", "sendback", "--procs", "4", "--words", "2048",
               "--seed", "5", "--out", out2])
    assert rc == 0
    header, rows = read_rows(out2)
    assert dict(zip(header, rows[0]))["scheme"] == "sendback"


def test_sweep_iotlb_emits_one_row_per_point(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-iotlb", "--seed", "7", "--ops", "40", "--out", out]) == 0
    header, rows = read_rows(out)
    assert header == CSV_COLUMNS
    assert len(rows) == 32
    labels = [dict(zip(header, r))["iotlb"] for r in rows]
    assert len(set(labels)) == 32


@pytest.mark.parametrize("command,scheme", CLI_ROWS)
def test_rows_match_pinned_golden(exact, command, scheme):
    lines = exact(cli_name(command, scheme))
    assert not lines, "\n".join(lines)


BAD_VALUES = [
    ("iotlb_assoc", {"iotlb_assoc": 3}),
    ("iotlb_size", {"iotlb_size": 0}),
    ("iotlb_size", {"iotlb_size": 6, "iotlb_assoc": 4}),
    ("iotlb_policy", {"iotlb_policy": "mru"}),
    ("access_log_size", {"access_log_size": 0}),
    ("access_log_size", {"access_log_size": 16}),
    ("wire_header_bytes", {"wire_header_bytes": -8}),
    ("poll_interval_ns", {"poll_interval_ns": 0, "mem_access_ns": 0}),
    ("stall_limit_ns", {"stall_limit_ns": 0}),
    # Half a cell leaves neither a bucket table nor an overflow heap.
    ("vol_size", {"vol_size": 1}),
    # Removed keys: the scheme alone picks the notification mode, handler
    # replies always go out right after the handler runs, the table holds
    # vol_size / 2 buckets, and the fault log size and the energy scale are
    # constants (logbuf.FAULT_LOG_ENTRIES, metrics.JOULES_PER_BYTE).
    ("notification", {"notification": "int"}),
    ("reply_batch", {"reply_batch": 4}),
    ("table_size", {"table_size": 2048}),
    ("fault_log_entries", {"fault_log_entries": -1}),
    ("joules_per_byte", {"joules_per_byte": -1}),
] + [(f.name, {f.name: -1}) for f in fields(SimConfig) if f.name.endswith("_ns")] + [
    # nan passes a `< 0` check and inf never lets the clock move on.
    (f.name, {f.name: value})
    for f in fields(SimConfig)
    if f.type in (float, "float")
    for value in ("nan", "inf")
]


@pytest.mark.parametrize("key", [
    "validate", "replace", "notification", "table_size", "fault_log_entries", "joules_per_byte",
    "no_such_key",
])
def test_replace_takes_only_config_fields(key):
    base = SimConfig()
    with pytest.raises(ConfigError, match=key):
        base.replace(**{key: 0})
    assert base.validate() is base  # the method is still a method
    copy = base.replace(seed=7)
    assert (copy.seed, base.seed) == (7, 1)
    assert copy.validate() is copy


@pytest.mark.parametrize("field,values", BAD_VALUES, ids=lambda v: str(v))
def test_bad_config_values_fail_fast(tmp_path, capsys, field, values):
    cfg = write_small_cfg(tmp_path, **values)
    assert main(["dht", "--config", cfg, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


def test_table_smaller_than_a_page_fails_fast_under_active_schemes(tmp_path, capsys):
    cfg = write_small_cfg(tmp_path, vol_size=256)
    assert main(["dht", "--config", cfg, "--scheme", "aa-poll", "--seed", "1"]) == 2
    assert "cannot share a page" in capsys.readouterr().err
    # Plain RMA maps the whole volume one way, so the same table runs.
    assert main(["dht", "--config", cfg, "--scheme", "rma", "--seed", "1"]) == 0


@pytest.mark.parametrize("scheme", ["rma", "am"])
def test_volume_smaller_than_a_page_runs_under_plain_schemes(tmp_path, scheme):
    # 128 cells of 16 B fill half a page; mapping covers the page it sits in.
    cfg = write_small_cfg(tmp_path, vol_size=128, ops_per_proc=8)
    out = str(tmp_path / "rows.csv")
    assert main(["dht", "--config", cfg, "--scheme", scheme, "--seed", "1", "--out", out]) == 0
    assert len(read_rows(out)[1]) == 1


def test_fresh_key_exhaustion_fails_fast(tmp_path):
    # Run in a child with a timeout: a regression hangs in key generation.
    cfg = write_small_cfg(tmp_path, vol_size=1024)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "aasim.cli", "dht", "--config", cfg, "--procs", "1", "--ops", "600"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "fresh keys" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, unbuffered):
    # The reader goes away before the first row, as `| head -0` would.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    with open(tmp_path / "err.txt", "w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "aasim.cli", "dht", "--procs", "2", "--ops", "5"],
            env=env, stdout=subprocess.PIPE, stderr=err,
        )
        child.stdout.close()
        assert child.wait(timeout=60) == 1
        err.seek(0)
        assert "Traceback" not in err.read()


BAD_WORKLOAD_ARGS = [
    # Each case names a phrase of its one-line error, so that no case passes
    # on an unrelated message such as "unknown config key".
    ({}, ["checkpoint", "--procs", "1"], "checkpoint needs procs >= 2"),
    ({}, ["checkpoint", "--pages", "0"], "pages >= 1"),
    ({}, ["counter", "--procs", "1"], "counter needs procs >= 2"),
    ({}, ["counter", "--pages", "0"], "pages >= 1"),
    ({}, ["sort", "--procs", "3"], "do not split evenly"),
    ({}, ["sort", "--words", "100"], "do not split evenly"),
    ({}, ["sort", "--procs", "3", "--words", "12289"], "do not split evenly"),
    ({}, ["sort", "--procs", "4", "--words", "-16384"], "whole 4096 B pages"),
    ({}, ["counter", "--procs", "2", "--accesses", "-5"], "accesses >= 0"),
    ({}, ["getlog", "--gets", "-3"], "gets >= 0"),
    ({}, ["checkpoint", "--procs", "2", "--epochs", "-1"], "epochs >= 0"),
    ({}, ["checkpoint", "--procs", "2", "--writes", "-2"], "writes >= 0"),
    ({}, ["dht", "--scheme", "am", "--delete-fraction", "0.5"], "no delete path"),
    ({}, ["dht", "--delete-fraction", "-1"], "delete_fraction must be in [0, 1]"),
    ({}, ["dht", "--delete-fraction", "2"], "delete_fraction must be in [0, 1]"),
    # The compute gap is sized on each source's first 16 inserts.
    ({}, ["dht", "--procs", "2", "--ops", "16", "--r-comp", "0.5"], "more than 16 ops"),
    # The sweep's skewed inserts need a hot owner and at least one source.
    ({}, ["sweep-iotlb", "--procs", "0", "--ops", "5"], "num_procs"),
    ({}, ["sweep-iotlb", "--procs", "1", "--ops", "5"], "skewed keys need >= 2 procs"),
    # A logged get whose record can never fit the ring (4120 B for a page).
    ({"access_log_size": 1024}, ["sort", "--scheme", "aa", "--procs", "2", "--words", "2048"],
     "access_log_size 1024"),
    ({"access_log_size": 4096}, ["sort", "--scheme", "aa", "--procs", "4", "--words", "8192"],
     "access_log_size 4096"),
    # Inserts that need more overflow cells at one owner than the heap holds.
    ({"vol_size": 4096}, ["dht", "--procs", "2", "--ops", "3000", "--r-cols", "0.9"],
     "overflow cells"),
    ({"vol_size": 4096},
     ["dht", "--scheme", "rma", "--procs", "2", "--ops", "3000", "--r-cols", "0.9"], "overflow cells"),
    # Half a cell leaves no bucket table, whatever the scheme or op count.
    ({"vol_size": 1}, ["dht", "--procs", "2", "--ops", "0"], "vol_size"),
    # A bypassed bridge logs nothing, so no workload may register a handler.
    ({"iommu_enabled": "false"}, ["dht", "--procs", "2", "--ops", "10"], "iommu_enabled"),
    ({"iommu_enabled": "false"}, ["counter", "--procs", "2"], "iommu_enabled"),
    ({"iommu_enabled": "false"}, ["getlog"], "iommu_enabled"),
    ({"iommu_enabled": "false"}, ["sort", "--procs", "2", "--words", "1024"], "iommu_enabled"),
    ({"iommu_enabled": "false"}, ["checkpoint", "--procs", "2"], "iommu_enabled"),
]


def _case_id(config, argv):
    return " ".join(["%s=%s" % item for item in config.items()] + argv)


@pytest.mark.parametrize(
    "config,argv,phrase", BAD_WORKLOAD_ARGS,
    ids=[_case_id(config, argv) for config, argv, _ in BAD_WORKLOAD_ARGS],
)
def test_bad_workload_arguments_fail_fast(tmp_path, config, argv, phrase):
    if config:
        path = tmp_path / "run.cfg"
        path.write_text("".join("%s = %s\n" % item for item in config.items()))
        argv = argv[:1] + ["--config", str(path)] + argv[1:]
    assert phrase in assert_fails_fast(argv)


def assert_fails_fast(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "aasim.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    return done.stderr


@pytest.mark.parametrize("flag,path", [
    ("--out", os.path.join("missing", "x.csv")),  # its directory does not exist
    ("--config", "."),  # a directory
])
def test_unusable_paths_fail_fast(tmp_path, flag, path):
    assert_fails_fast(["dht", "--procs", "2", "--ops", "10", flag, str(tmp_path / path)])


@pytest.mark.parametrize("argv", [
    ["dht", "--scheme", "rma"],
    ["dht", "--scheme", "am"],
    ["counter", "--scheme", "rma-atomics"],
    ["getlog", "--scheme", "no-ft"],
])
def test_plain_schemes_run_with_the_bridge_off(tmp_path, capsys, argv):
    cfg = write_small_cfg(tmp_path, iommu_enabled="false", num_procs=2)
    assert main(argv[:1] + ["--config", cfg, "--seed", "1"] + argv[1:]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_stalled_run_exits_3_with_its_diagnosis(tmp_path, capsys):
    # A 1 ns stall limit trips the watchdog before the first op completes.
    path = tmp_path / "stall.cfg"
    path.write_text("stall_limit_ns = 1\n")
    rc = main(["dht", "--config", str(path), "--scheme", "aa-poll", "--procs", "4", "--ops", "50"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: deadlock diagnostics at t=")
    # Every app is still in its first issue wait, which only its core shows.
    for rank in range(4):
        assert "  rank %d: core busy until t=1500\n" % rank in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_exceeded_event_budget_exits_3_with_its_diagnosis(monkeypatch, capsys):
    monkeypatch.setattr(sim_mod, "DEFAULT_EVENT_BUDGET", 50)
    rc = main(["dht", "--procs", "2", "--ops", "20"])
    captured = capsys.readouterr()
    assert rc == 3
    err = captured.err.splitlines()
    assert err[0] == "error: event budget exceeded (50)"
    assert err[1].startswith("deadlock diagnostics at t=")
    assert err[2] == "  apps done: 0/2"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_out_of_host_memory_exits_2_in_one_line(monkeypatch, capsys):
    def run(self):
        raise MemoryError

    monkeypatch.setattr(dht.DhtBench, "run", run)
    assert main(["dht", "--procs", "2", "--ops", "5"]) == 2
    assert capsys.readouterr() == ("", "error: out of host memory; use smaller sizes\n")


def test_out_into_a_missing_directory_exits_2_in_one_line(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.csv")
    assert main(["dht", "--procs", "2", "--ops", "10", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --out %s: " % out)
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_r_comp_adds_compute_gaps_and_nothing_else(tmp_path):
    # The gap is a sleep on the source's core, taken after WARMUP_OPS
    # inserts: it moves the run's time, not its ops or its bytes.
    rows = {}
    for r_comp in ("0", "0.5"):
        out = str(tmp_path / ("r%s.csv" % r_comp))
        argv = ["dht", "--procs", "2", "--ops", "40", "--seed", "1", "--out", out]
        assert main(argv + ["--r-comp", r_comp]) == 0
        header, body = read_rows(out)
        rows[r_comp] = dict(zip(header, body[0]))
    plain, gapped = rows["0"], rows["0.5"]
    assert float(gapped["r_comp"]) == 0.5
    assert gapped["remote_ops"] == plain["remote_ops"]
    assert gapped["bytes_wire"] == plain["bytes_wire"]
    assert float(gapped["sim_time_ns"]) > float(plain["sim_time_ns"])
    bench = dht.DhtBench(SimConfig(num_procs=2, ops_per_proc=40, seed=1, r_comp=0.5))
    bench.run()
    for rank in range(2):
        assert bench.contents(rank) == bench.oracle_contents(rank)


@pytest.mark.parametrize("argv", [
    ["dht", "--procs", "2", "--ops", "0"],  # no app: run() sweeps at once
    ["checkpoint", "--procs", "2", "--epochs", "0"],  # apps return in their first step
    ["getlog", "--scheme", "sendback", "--gets", "0"],  # the send log still takes a page
])
def test_empty_runs_end_at_time_zero(tmp_path, argv):
    out = str(tmp_path / "empty.csv")
    assert main(argv + ["--out", out]) == 0
    header, body = read_rows(out)
    (row,) = [dict(zip(header, line)) for line in body]
    assert row["ops"] == "0"
    assert float(row["sim_time_ns"]) == 0.0
