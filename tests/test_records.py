"""The result records: plain classes and NamedTuples, not dataclasses, and
GameDef, a plain class that behaves as its frozen dataclass twin."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import grundylab
from grundylab import core
from grundylab.classify import EquivalenceReport, VerifyReport
from grundylab.grundy import ConsistencyReport
from grundylab.suites import SuiteResult
from grundylab.zoo import BeattyPair, CheckReport


@pytest.mark.parametrize("make,attr", [
    (lambda: VerifyReport("pet"), "failures"),
    (lambda: VerifyReport("pet"), "set_mismatches"),
    (lambda: SuiteResult("sums", 0), "checks"),
    (ConsistencyReport, "violations"),
    (lambda: CheckReport(True), "failures"),
], ids=["verify_failures", "verify_mismatches", "suite", "consistency",
        "check"])
def test_mutable_defaults_are_fresh_per_instance(make, attr):
    first, second = make(), make()
    getattr(first, attr).append("entry")
    assert getattr(second, attr) == []
    assert getattr(make(), attr) == []


def test_given_lists_are_kept():
    failures, mismatches = [("iii", 1, "x")], [("v10", {7}, set())]
    report = VerifyReport("pet", failures, mismatches)
    assert report.failures is failures
    assert report.set_mismatches is mismatches
    assert not report.ok
    assert CheckReport(False, failures).failures is failures
    assert SuiteResult("sums", 3, failures).checks is failures
    consistency = ConsistencyReport(failures)
    assert consistency.violations is failures and not consistency.ok


def test_equivalence_report_equality_compares_conditions_and_witnesses():
    report = EquivalenceReport({"a": True, "b": True}, {})
    assert report == EquivalenceReport({"a": True, "b": True}, {})
    assert report != EquivalenceReport({"a": True, "b": False}, {})
    assert report != EquivalenceReport({"a": True, "b": True},
                                       {"b": ("x", (0, 1), "reason")})
    assert report.agree and report.value
    split = EquivalenceReport({"a": True, "b": False}, {})
    assert not split.agree and not split.value


@pytest.mark.parametrize("n,x,y", [(0, 0, 0), (1, 1, 2), (2, 3, 5),
                                   (3, 4, 7), (10, 16, 26)])
def test_beatty_pair_exposes_n_x_and_y(n, x, y):
    pair = BeattyPair(n)
    assert (pair.n, pair.x, pair.y) == (n, x, y)


def test_only_gamedef_is_a_dataclass():
    # A dataclass compiles its generated methods with exec when its module
    # is imported: 0.3-1.0 ms per class (CPython 3.11.7, 2-core x86-64),
    # 5.8-6.3 ms for the eleven the package once defined, paid by every CLI
    # call.  GameDef is a plain class whose __dataclass_fields__ is built on
    # first read, so that perfbench/spans.py can still rebuild it with
    # dataclasses.replace; is_dataclass reads that attribute.
    modules = [importlib.import_module(f"grundylab.{info.name}")
               for info in pkgutil.iter_modules(grundylab.__path__)]
    found = {f"{cls.__module__}.{cls.__qualname__}"
             for module in modules for cls in vars(module).values()
             if inspect.isclass(cls) and cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)}
    assert found == {"grundylab.core.GameDef"}


@dataclasses.dataclass(frozen=True)
class GameDef:
    """The literal frozen dataclass that core.GameDef stands in for."""

    family: str
    params: dict = dataclasses.field(default_factory=dict)
    options: object = None
    canonical: object = None
    box_moves: object = None


FIELD_NAMES = ("family", "params", "options", "canonical", "box_moves")


def _nim(p):
    return [(v,) for v in range(p[0])]


def _values(game):
    return tuple(getattr(game, name) for name in FIELD_NAMES)


def _pair(*args, **kwargs):
    """The same construction of core.GameDef and of its dataclass twin."""
    return core.GameDef(*args, **kwargs), GameDef(*args, **kwargs)


def test_gamedef_fields_are_the_dataclass_twins():
    def described(fields):
        return [(f.name, f.default, f.default_factory, f.init, f.compare)
                for f in fields]

    game, twin = _pair("nim")
    assert described(dataclasses.fields(core.GameDef)) == described(
        dataclasses.fields(GameDef))
    assert described(dataclasses.fields(game)) == described(
        dataclasses.fields(twin))
    assert [f.name for f in dataclasses.fields(game)] == list(FIELD_NAMES)
    assert dataclasses.is_dataclass(core.GameDef)
    assert dataclasses.is_dataclass(game)
    assert core.GameDef.__match_args__ == GameDef.__match_args__


@pytest.mark.parametrize("args,kwargs", [
    (("nim",), {}),
    (("nim", {"k": 1}), {}),
    (("nim", {"k": 1}, _nim, abs, len), {}),
    ((), {"family": "nim", "options": _nim}),
    (("nim",), {"box_moves": len, "canonical": abs, "params": {"k": 2}}),
], ids=["family", "params", "positional", "keyword", "mixed"])
def test_gamedef_constructs_as_the_dataclass_twin(args, kwargs):
    game, twin = _pair(*args, **kwargs)
    assert all(a is b or a == b == {}
               for a, b in zip(_values(game), _values(twin)))
    assert repr(game) == repr(twin)


def test_gamedef_params_default_is_fresh_per_instance():
    first, second = core.GameDef("nim"), core.GameDef("nim")
    first.params["k"] = 1
    assert second.params == {} and core.GameDef("nim").params == {}


@pytest.mark.parametrize("name,value", [
    ("family", "wythoff"), ("params", {"k": 3}), ("options", len),
    ("canonical", abs), ("box_moves", len)])
def test_gamedef_equality_and_replace_match_the_dataclass_twin(name, value):
    args = ("nim", {"k": 1}, _nim, None, None)
    game, twin = _pair(*args)
    other, other_twin = _pair(*args)
    changed = dataclasses.replace(game, **{name: value})
    changed_twin = dataclasses.replace(twin, **{name: value})
    assert type(changed) is core.GameDef
    assert getattr(changed, name) is value
    assert _values(changed) == _values(changed_twin)
    for a, b, ta, tb in ((game, other, twin, other_twin),
                         (game, changed, twin, changed_twin),
                         (changed, game, changed_twin, twin)):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    assert game == other and game != changed
    # a different class never compares equal, the twin included
    assert game != twin and twin != game and game != object()


def test_gamedef_is_unhashable_and_read_only():
    game, twin = _pair("nim", {"k": 1}, _nim)
    for record in (game, twin):
        with pytest.raises(TypeError):
            hash(record)
        for name in (*FIELD_NAMES, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert _values(game) == ("nim", {"k": 1}, _nim, None, None)


def test_gamedef_copies_and_pickles_as_the_dataclass_twin():
    game = core.GameDef("nim", {"k": [1]}, _nim)
    assert copy.copy(game) == game and copy.copy(game).params is game.params
    deep = copy.deepcopy(game)
    assert deep == game and deep.params["k"] is not game.params["k"]
    assert pickle.loads(pickle.dumps(game)) == game
