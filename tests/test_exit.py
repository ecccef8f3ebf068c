"""How a CLI process ends: `python -m ltpal.cli` and the `ltpal` script go
through `cli.run`, which ends the process with `os._exit` once the output is
flushed.  What the process shows must be what in-process `cli.main` gives."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ltpal.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# A line-protocol scorer that records its pid before it answers.
_SCORER = (
    "import json, os, pathlib, sys\n"
    "pathlib.Path(sys.argv[1]).write_text(str(os.getpid()))\n"
    "for line in sys.stdin:\n"
    "    print(json.dumps({'score': 0.5}), flush=True)\n"
)


def _env() -> dict:
    """The environment of a CLI child: `src` importable and stdout block
    buffered, so that output the exit did not flush would be lost."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=path)


def _python(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_env(), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


@pytest.fixture(scope="module")
def ts_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("exit") / "ts.json"
    assert main(["build", "--frames", str(DATA / "demo_frames.json"), "--output", str(target)]) == 0
    return str(target)


@pytest.mark.parametrize("argv, cap, expected", [
    (["check", "--formula", "F v2:Dog | F v2:Cat"], None, 0),
    (["check", "--formula", "F v2:Cat"], None, 1),
    (["check", "--formula", "F v2:Cat", "--path-index", "99"], None, 2),
    (["check", "--formula", "F (v2:Cat"], None, 2),
    (["check", "--formula", "F (v2:Cat | v2:Dog)"], "2", 3),
], ids=["exit-0", "exit-1", "exit-2-input", "exit-2-parse", "exit-3"])
def test_a_cli_process_shows_what_main_returns(ts_file, capsys, monkeypatch, argv, cap, expected):
    argv = [argv[0], "--ts", ts_file, *argv[1:]]
    if cap is not None:
        monkeypatch.setenv("LTPAL_PATH_CAP", cap)
    code = main(argv)
    captured = capsys.readouterr()
    done = _python("-m", "ltpal.cli", *argv)
    assert code == expected
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


def test_a_usage_error_ends_the_process_as_argparse_does(ts_file, capsys):
    argv = ["check", "--ts", ts_file]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    done = _python("-m", "ltpal.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (info.value.code, "", captured.err)
    assert done.returncode == 2


def test_a_closed_stdout_pipe_still_ends_with_status_120(ts_file):
    """The flush fails, so the ordinary exit reports the broken pipe as it
    always did."""
    argv = ["check", "--ts", ts_file, "--formula", "F v2:Cat"]
    ordinary = "import sys; from ltpal.cli import main; sys.exit(main())"
    outcomes = []
    for command in (["-m", "ltpal.cli"], ["-c", ordinary]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = _python(*command, *argv, stdout=write)
        finally:
            os.close(write)
        outcomes.append((done.returncode, done.stderr))
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 120
    assert err.startswith("Exception ignored")
    assert "BrokenPipeError" in err


def test_exit_handlers_registered_before_the_module_runs_still_run(ts_file, capsys):
    argv = ["check", "--ts", ts_file, "--formula", "F v2:Cat"]
    wrapper = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'exit handler ran')\n"
        "atexit.register(sys.stderr.write, 'no newline')\n"  # stderr flushes only at a newline
        f"sys.argv = ['ltpal', *{argv!r}]\n"
        "runpy.run_module('ltpal.cli', run_name='__main__')\n"
    )
    assert main(argv) == 1
    expected = capsys.readouterr().out
    done = _python("-c", wrapper)
    assert (done.returncode, done.stdout, done.stderr) == (1, expected + "exit handler ran\n",
                                                           "no newline")


def test_a_missing_stderr_keeps_the_exit_code(ts_file):
    """Its flush fails, so `run` returns the code for the ordinary exit."""
    script = (
        "import sys\n"
        "sys.stderr = None\n"
        "from ltpal.cli import run\n"
        f"sys.exit(run(['check', '--ts', {ts_file!r}, '--formula', 'F v2:Cat']))\n"
    )
    done = _python("-c", script)
    assert (done.returncode, json.loads(done.stdout)["result"]) == (1, False)


def test_a_trace_function_keeps_the_ordinary_exit(ts_file):
    script = (
        "import sys\n"
        "from ltpal.cli import run\n"
        "sys.settrace(lambda *args: None)\n"
        f"code = run(['check', '--ts', {ts_file!r}, '--formula', 'F v2:Cat'])\n"
        "print('run returned', code)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "run returned 1"


def test_cprofile_still_prints_its_table(ts_file):
    done = _python("-m", "cProfile", "-m", "ltpal.cli", "mppe", "--ts", ts_file)
    assert done.returncode == 0
    first, rest = done.stdout.split("\n", 1)
    assert json.loads(first)["path"] == ["w00", "w10", "w20", "w30"]
    assert "function calls" in rest and "Ordered by" in rest


def test_written_files_are_complete(ts_file, tmp_path, capsys):
    """`build --output` and `mppe --emit-corrected` files are byte for byte
    what in-process `main` writes."""
    runs = {
        "build": ["build", "--frames", str(DATA / "demo_frames.json"), "--output"],
        "mppe": ["mppe", "--ts", ts_file, "--scores", str(DATA / "demo_scores.json"),
                 "--emit-corrected"],
    }
    for name, argv in runs.items():
        here, there = tmp_path / f"{name}-main.json", tmp_path / f"{name}-run.json"
        assert main([*argv, str(here)]) == 0
        capsys.readouterr()
        done = _python("-m", "ltpal.cli", *argv, str(there))
        assert (done.returncode, done.stderr) == (0, "")
        assert there.read_bytes() == here.read_bytes()
        assert json.loads(there.read_text())


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not ended (a zombie has ended)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_an_external_scorer_has_ended_when_the_cli_process_has(ts_file, tmp_path):
    pid_file = tmp_path / "scorer.pid"
    scorer = f"{sys.executable} -c \"{_SCORER}\" {pid_file}"
    done = _python("-m", "ltpal.cli", "mppe", "--ts", ts_file, "--scorer-cmd", scorer)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["score"] == pytest.approx(0.5)
    assert not _running(int(pid_file.read_text()))
