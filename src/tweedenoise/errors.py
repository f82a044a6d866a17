"""Exception hierarchy.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto process exit codes (see the ``cli.EXIT_*``
constants).
"""


class TweedenoiseError(Exception):
    """Base class for all library errors."""


class DomainError(TweedenoiseError, ValueError):
    """Input outside the mathematical domain (non-positive y, bad rho, ...)."""


class SingularEstimateError(TweedenoiseError, ArithmeticError):
    """Posterior-mean formula hit an undefined point (fractional power of a
    non-positive base, Gamma denominator at or below its floor)."""


class EstimationFailure(TweedenoiseError, RuntimeError):
    """Blind estimation could not produce a usable estimate.

    ``report`` is optional; ``pipeline.blind_estimate`` sets it to its
    ``DenoiseReport``: the y1 scores, the probe seed, this message as
    ``error``, and the model estimate when there is one.
    """

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class TrainingDivergence(TweedenoiseError, RuntimeError):
    """Loss became non-finite during training.

    ``last_good`` holds the most recent finite-loss parameter snapshot.
    """

    def __init__(self, msg, last_good=None):
        super().__init__(msg)
        self.last_good = last_good


class QuadratureError(TweedenoiseError, ArithmeticError):
    """Quadrature failed its self-convergence check."""


class ValidationError(TweedenoiseError, ValueError):
    """Config or manifest failed schema validation."""
