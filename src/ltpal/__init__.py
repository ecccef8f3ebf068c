"""Epistemic-temporal model checking and stream correction.

The package turns per-frame multi-classifier outputs into a layered
transition system whose states are epistemic models, evaluates public
announcement and finite-trace temporal formulas over its total paths,
classifies query templates into reliability verdicts, and extracts the
most probable execution path for stream correction.

`import ltpal` loads no submodule.  Each name in `__all__`, and each
submodule such as `ltpal.temporal`, is imported on first use, so a
program pays to compile only the parts it runs.
"""

__version__ = "0.1.0"

# Submodule -> the names it exports here.
_EXPORTS = {
    "classify": (
        "DEFAULT_PATH_CAP", "VerdictReport", "check_missing_info", "check_possible_agent",
        "check_possible_group", "check_robust_agent", "check_verified_group", "quantify_paths",
    ),
    "errors": (
        "ArityError", "ConfigurationError", "EpistemicScopeError", "EvaluationError",
        "IngestionError", "LtpalError", "ParseError",
    ),
    "formulas": (
        "Announce", "Dist", "Knows", "Next", "PAnd", "PNot", "Pal", "PalFormula",
        "Placeholder", "Prop", "TAnd", "TNot", "Template", "TemporalFormula", "Until",
        "bottom", "expand_groups", "future", "globally", "lift", "p_implies", "p_or",
        "release", "substitute", "t_and", "t_implies", "t_not", "t_or", "top", "weak_until",
    ),
    "model": ("Atom", "PALModel", "RuleSet", "World", "enrich_model", "rule_closure"),
    "mppe": (
        "ExternalScorer", "FrameChoice", "ScoredPath", "ScoreTable", "correct_stream",
        "most_probable_path", "overlap_score", "project_stream", "score_edges",
    ),
    "pal": ("announce_update", "pal_sat"),
    "serialize": (
        "FramesDocument", "build_from_files", "dump_ts", "ingest", "load_candidates",
        "load_frames", "load_rules", "load_scores", "load_ts", "save_ts",
    ),
    "syntax": ("parse_formula", "parse_pal_formula", "parse_template", "pretty"),
    "temporal": ("tems",),
    "transition": (
        "ExecPath", "TransitionSystem", "build_ts", "enumerate_total_paths", "total_path_count",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule `name`, or the one that exports `name`, on first use."""
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")  # which binds the submodule here
        return globals()[name]
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys())
