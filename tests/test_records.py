"""The result records' contract: each type `scenario.frozen_record` builds
behaves as its `dataclass(frozen=True)` twin does, from signature and
errors to equality, hashing, copies and pickles; only the `__init__` that
stores the fields differs."""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from opmdeploy import mc
from opmdeploy.classify import CheckResult, HarmAssessment, SubcaseRow
from opmdeploy.metrics import CalibrationLevel, CalibrationReport, DiscriminationMetrics
from opmdeploy.report import DeploymentReport, evaluate_scenario
from opmdeploy.scenario import (
    ObservedDistribution,
    Opm,
    OutcomePolarity,
    PotentialOutcomes,
    ScenarioParams,
)

REPORT = evaluate_scenario(ScenarioParams(
    0.3, 1, -0.5, math.log(2.5), -math.log(1.8), 0.4, OutcomePolarity.UNDESIRABLE
))
CHECKS = REPORT.checks()
# One instance of each decorated type, as the program builds it.
INSTANCES = {
    PotentialOutcomes: REPORT.po,
    Opm: REPORT.opm,
    ObservedDistribution: REPORT.post,
    DiscriminationMetrics: REPORT.discrimination_post,
    CalibrationLevel: REPORT.calibration_post.levels[1],
    CalibrationReport: REPORT.calibration_post,
    CheckResult: CHECKS["uniform_effect_rule"],
    HarmAssessment: REPORT.harm,
    SubcaseRow: CHECKS["shift_subcase"],
    DeploymentReport: evaluate_scenario(REPORT.params),  # no memo in its __dict__
    mc.EmpiricalMetrics: mc.empirical_metrics(np.array([40, 9, 17, 34]), 1),
}
TYPES = pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)


def twin(cls):
    """The same fields, types and defaults under `dataclass(frozen=True)`."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ], frozen=True)


def values(cls) -> dict:
    return {f.name: getattr(INSTANCES[cls], f.name) for f in dataclasses.fields(cls)}


def error(make) -> str:
    with pytest.raises(TypeError) as raised:
        make()
    return str(raised.value)


@TYPES
def test_signature_is_the_dataclasses(cls):
    assert inspect.signature(cls.__init__) == inspect.signature(twin(cls).__init__)
    assert inspect.signature(cls) == inspect.signature(twin(cls))
    assert inspect.signature(cls.__init__).return_annotation is None
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@TYPES
def test_argument_errors_are_the_dataclasses(cls):
    given, other = values(cls), twin(cls)
    first = next(iter(given))
    for call in (
        lambda kind: kind(),
        lambda kind: kind(**given, unknown=1),
        lambda kind: kind(*given.values(), None),
        lambda kind: kind(given[first], **given),
        lambda kind: kind(**{k: v for k, v in given.items() if k != first}),
    ):
        assert error(lambda: call(cls)) == error(lambda: call(other))


@TYPES
def test_fields_can_be_neither_set_nor_deleted(cls):
    record = INSTANCES[cls]
    before = dict(vars(record))
    for name, value in values(cls).items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.unknown = 1
    assert vars(record) == before


@TYPES
def test_equality_hash_and_repr_are_the_dataclasses(cls):
    given = values(cls)
    record, same, of_twin = cls(**given), cls(*given.values()), twin(cls)(**given)
    assert record == same == INSTANCES[cls] and record is not same
    assert record != of_twin  # a dataclass equals only its own class
    assert hash(record) == hash(same) == hash(of_twin)
    assert repr(record) == repr(of_twin)
    assert vars(record) == vars(of_twin) == given
    assert list(vars(record)) == list(given)  # in field order, as the JSON copies them


@TYPES
def test_replace_copy_and_pickle_round_trip(cls):
    record = INSTANCES[cls]
    first, value = next(iter(values(cls).items()))
    for twin_of_record in (
        dataclasses.replace(record), copy.copy(record), copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin_of_record) is cls
        assert twin_of_record == record and vars(twin_of_record) == vars(record)
    changed = dataclasses.replace(record, **{first: None})
    assert getattr(changed, first) is None and getattr(record, first) == value


def test_checks_memo_lives_in_the_reports_dict():
    report = evaluate_scenario(REPORT.params)
    assert "_checks" not in vars(report)
    found = report.checks()
    assert vars(report)["_checks"] == found and report.checks() is not found
    assert report == INSTANCES[DeploymentReport]  # the memo is no field
    assert hash(report) == hash(INSTANCES[DeploymentReport])
    assert pickle.loads(pickle.dumps(report)).checks() == found

