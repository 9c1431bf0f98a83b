"""Normal and misere Sprague-Grundy analysis of finite impartial games."""

from .core import (
    CycleDetected,
    GameDef,
    InvalidParams,
    LimitExceeded,
    MISERE_TERMINAL,
    MissingSet,
    NotTameLabel,
    ReachableGraph,
    UnknownFixture,
    UnknownPosition,
    UnknownPredicate,
    UnsupportedParams,
    adjoin_misere_terminal,
    disjoint_union,
    enumerate_subgame,
    graph_from_adjacency,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .grundy import Label, LabeledGraph, mex, sg_labels, verify_sg_consistency
from .classify import (
    CandidateSets,
    ClassReport,
    check_sm_equivalences,
    classify,
    find_witness,
    verify_candidate_sets,
)
from .sums import check_closure, sum_graph, sum_sg, tame_sum_label
from . import zoo

__all__ = [name for name in dir() if not name.startswith("_")]
