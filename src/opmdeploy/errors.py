"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: validation problems
exit 2, degenerate scenarios exit 3, I/O failures exit 4.
"""


class OpmDeployError(Exception):
    pass


class ConfigError(OpmDeployError):
    """A parameter or config file violates its stated invariants."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DegenerateScenario(OpmDeployError):
    """The historic log-odds step is zero, so f(0)=f(1): no nonconstant
    threshold policy exists and the scenario carries no usable model."""


class DegenerateOutcome(OpmDeployError):
    """p(Y=1) rounds to exactly 0 or 1, so sensitivity/specificity are
    undefined."""
