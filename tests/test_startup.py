"""Start-up: each CLI command imports only the modules it runs, `import
ltpal` resolves its exports on first use, and the benchmark's tracer still
reaches every layer a command runs through the names it rebinds."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltpal
from ltpal.serialize import build_from_files, save_ts

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FRAMES = str(DATA / "demo_frames.json")
SCORES = str(DATA / "demo_scores.json")

# Every name the package exports, by the module that defines it.
_EXPORTS = {
    "classify": "DEFAULT_PATH_CAP VerdictReport quantify_paths verdict",
    "errors": "ArityError ConfigurationError EpistemicScopeError EvaluationError "
              "IngestionError LtpalError ParseError",
    "formulas": "Announce Dist Knows Next PAnd PNot Pal PalFormula Placeholder Prop TAnd TNot "
                "Template TemporalFormula Until bottom expand_groups future globally lift "
                "p_implies p_or release substitute t_and t_implies t_not t_or top weak_until",
    "model": "Atom PALModel RuleSet World enrich_model rule_closure",
    "mppe": "ExternalScorer FrameChoice ScoredPath ScoreTable correct_stream most_probable_path "
            "overlap_score project_stream score_edges",
    "pal": "announce_update pal_sat",
    "serialize": "FramesDocument build_from_files dump_ts ingest load_candidates load_rules "
                 "load_scores load_ts save_ts",
    "syntax": "parse_formula parse_pal_formula parse_template pretty",
    "temporal": "tems",
    "transition": "ExecPath TransitionSystem build_ts enumerate_total_paths total_path_count",
}


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the demo system `ts.json` and `cands.json`."""
    work = tmp_path_factory.mktemp("startup")
    save_ts(build_from_files(FRAMES), work / "ts.json")
    (work / "cands.json").write_text(json.dumps({"candidates": ["v1:Cat"]}))
    return work


def test_package_exports_are_unchanged_and_are_their_modules_objects():
    assert ltpal.__all__ == sorted(name for names in _EXPORTS.values() for name in names.split())
    for module, names in _EXPORTS.items():
        home = importlib.import_module(f"ltpal.{module}")
        for name in names.split():
            assert getattr(ltpal, name) is getattr(home, name), name
    assert set(ltpal.__all__) | set(_EXPORTS) <= set(dir(ltpal))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ltpal.no_such_name


def test_import_ltpal_loads_each_submodule_on_first_use():
    probe = (
        "import sys, ltpal\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('ltpal'))\n"
        "assert loaded() == ['ltpal'], loaded()\n"
        "assert ltpal.temporal.tems is ltpal.tems\n"
        "assert 'ltpal.mppe' not in sys.modules and 'ltpal.cli' not in sys.modules, loaded()\n"
        "from ltpal import *\n"
        "assert 'ltpal.mppe' in sys.modules and most_probable_path is ltpal.mppe.most_probable_path\n"
    )
    subprocess.run([sys.executable, "-c", probe], env=_env(), timeout=60, check=True)


_BASE = {"ltpal", "ltpal.errors", "ltpal.model", "ltpal.transition", "ltpal.serialize"}
_MPPE = _BASE | {"ltpal.mppe"}
_FORMULAS = _BASE | {"ltpal.formulas", "ltpal.syntax", "ltpal.classify", "ltpal.temporal", "ltpal.pal"}
_CHECK = ["check", "--ts", "ts.json", "--formula", "F v2:Cat"]
_CLASSIFY = ["classify", "--ts", "ts.json", "--template", "X ?1", "--atoms", "v1:Cat",
             "--group", "both"]


@pytest.mark.parametrize("argv, modules", [
    (["build", "--frames", FRAMES, "--output", "out.json"], _BASE),
    (["paths", "--ts", "ts.json"], _BASE),
    (["mppe", "--ts", "ts.json"], _MPPE),
    (["mppe", "--ts", "ts.json", "--scores", SCORES], _MPPE),
    (_CHECK, _FORMULAS),
    ([*_CHECK, "--mppe-only"], _FORMULAS | _MPPE),
    ([*_CLASSIFY, "--mode", "missing-verified", "--candidates", "cands.json"], _FORMULAS),
    ([*_CLASSIFY, "--mode", "verified", "--mppe-only"], _FORMULAS | _MPPE),
], ids=["build", "paths", "mppe", "mppe-scores", "check", "check-mppe-only", "classify",
        "classify-mppe-only"])
def test_each_command_imports_only_the_modules_it_runs(work, argv, modules):
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ltpal.cli", *argv], cwd=work, env=_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode in (0, 1), done.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines() if line.startswith("import time:")
    }
    assert {name for name in imported if name.split(".")[0] == "ltpal"} == modules


_LOAD = "serialize.load_ts"


@pytest.mark.parametrize("argv, layers", [
    (["build", "--frames", FRAMES, "--output", "out.json"],
     {"transition.build_ts": 1, "serialize.ingest": 1, "serialize.save_ts": 1}),
    (_CHECK, {_LOAD: 1, "syntax.parse": 1, "classify.quantify_paths": 1}),
    ([*_CHECK, "--mppe-only"],
     {_LOAD: 1, "syntax.parse": 1, "classify.quantify_paths": 1, "mppe.score_edges": 1,
      "mppe.most_probable_path": 1}),
    # The template, the atom and the candidate, which `serialize` parses.
    ([*_CLASSIFY, "--mode", "missing-verified", "--candidates", "cands.json"],
     {_LOAD: 1, "syntax.parse": 3, "classify.quantify_paths": 2}),
    (["mppe", "--ts", "ts.json"],
     {_LOAD: 1, "mppe.score_edges": 1, "mppe.most_probable_path": 1,
      "mppe.project_stream": 1}),
], ids=["build", "check", "check-mppe-only", "classify", "mppe"])
def test_the_tracer_records_each_layer_a_command_runs(work, tmp_path, argv, layers):
    """perfbench/traced_cli.py wraps the names through which the CLI calls
    each layer; a command that reached a layer some other way would leave
    that layer's benchmark metrics at zero."""
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), "--trace-out", str(trace),
         "--", *argv],
        cwd=work, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode in (0, 1), done.stderr
    stats = json.loads(trace.read_text())["stats"]
    assert {name: stats[name][0] for name in layers} == layers
