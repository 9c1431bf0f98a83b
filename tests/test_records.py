"""The result records: plain classes and NamedTuples, not dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import grundylab
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
    consistency = ConsistencyReport(failures, 1)
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
    # call.  GameDef stays one because perfbench/spans.py rebuilds it with
    # dataclasses.replace.
    modules = [importlib.import_module(f"grundylab.{info.name}")
               for info in pkgutil.iter_modules(grundylab.__path__)]
    found = {f"{cls.__module__}.{cls.__qualname__}"
             for module in modules for cls in vars(module).values()
             if inspect.isclass(cls) and cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)}
    assert found == {"grundylab.core.GameDef"}
