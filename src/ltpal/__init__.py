"""Epistemic-temporal model checking and stream correction.

The package turns per-frame multi-classifier outputs into a layered
transition system whose states are epistemic models, evaluates public
announcement and finite-trace temporal formulas over its total paths,
classifies query templates into reliability verdicts, and extracts the
most probable execution path for stream correction.
"""

from .classify import (
    DEFAULT_PATH_CAP,
    VerdictReport,
    check_missing_info,
    check_possible_agent,
    check_possible_group,
    check_robust_agent,
    check_verified_group,
    quantify_paths,
)
from .errors import (
    ConfigurationError,
    EpistemicScopeError,
    EvaluationError,
    IngestionError,
    LtpalError,
    ParseError,
)
from .formulas import (
    Announce,
    Dist,
    Knows,
    Next,
    PAnd,
    PNot,
    Pal,
    PalFormula,
    Placeholder,
    Prop,
    TAnd,
    TNot,
    Template,
    TemporalFormula,
    Until,
    bottom,
    expand_groups,
    future,
    globally,
    lift,
    p_implies,
    p_or,
    release,
    substitute,
    t_and,
    t_implies,
    t_not,
    t_or,
    top,
    weak_until,
)
from .model import Atom, PALModel, RuleSet, World, enrich_model, rule_closure
from .mppe import (
    ExternalScorer,
    FrameChoice,
    ScoredPath,
    ScoreTable,
    correct_stream,
    most_probable_path,
    overlap_score,
    project_stream,
    score_edges,
)
from .pal import announce_update, pal_sat
from .serialize import (
    FramesDocument,
    build_from_files,
    dump_ts,
    ingest,
    load_candidates,
    load_frames,
    load_rules,
    load_scores,
    load_ts,
    save_ts,
)
from .syntax import parse_formula, parse_pal_formula, parse_template, pretty
from .temporal import tems
from .transition import (
    ExecPath,
    TransitionSystem,
    build_ts,
    enumerate_total_paths,
    total_path_count,
)

__version__ = "0.1.0"

__all__ = [
    "Announce", "Atom", "ConfigurationError", "DEFAULT_PATH_CAP", "Dist",
    "EpistemicScopeError", "EvaluationError", "ExecPath", "ExternalScorer",
    "FrameChoice", "FramesDocument", "IngestionError", "Knows", "LtpalError",
    "Next", "PALModel", "PAnd", "PNot", "Pal", "PalFormula", "ParseError",
    "Placeholder", "Prop", "RuleSet", "ScoreTable", "ScoredPath", "TAnd",
    "TNot", "Template", "TemporalFormula", "TransitionSystem", "Until",
    "VerdictReport", "World", "announce_update", "bottom", "build_from_files",
    "build_ts", "check_missing_info", "check_possible_agent",
    "check_possible_group", "check_robust_agent", "check_verified_group",
    "correct_stream", "dump_ts", "enrich_model", "enumerate_total_paths",
    "expand_groups", "future", "globally", "ingest", "lift", "load_candidates",
    "load_frames", "load_rules", "load_scores", "load_ts",
    "most_probable_path", "overlap_score", "p_implies", "p_or", "pal_sat",
    "parse_formula", "parse_pal_formula", "parse_template", "pretty",
    "project_stream", "quantify_paths", "release", "rule_closure",
    "save_ts", "score_edges", "substitute", "t_and", "t_implies", "t_not",
    "t_or", "tems", "top", "total_path_count", "weak_until",
]
