"""opmdeploy: deployment of an outcome prediction model as a treatment
policy, analyzed in closed form.

Core objects: ScenarioParams (a binary-covariate world on the log-odds
scale), the fitted predictor and its threshold policy, the observable
distributions before and after deployment, discrimination/calibration
metrics, harm classification, the grid experiment, and a seeded Monte
Carlo cross-check.

The package exports ScenarioParams, OutcomePolarity and evaluate_scenario;
every other name is imported from its module (opmdeploy.sweep,
opmdeploy.mc, ...).
"""

__version__ = "0.1.0"

from .report import evaluate_scenario
from .scenario import OutcomePolarity, ScenarioParams
