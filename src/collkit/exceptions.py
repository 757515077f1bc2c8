"""Exception hierarchy shared by all collkit modules."""


class CollkitError(Exception):
    """Base class for all collkit errors."""


class EvaluationError(CollkitError):
    """A velocity field returned a non-finite value; message names the point."""


class CapabilityError(CollkitError):
    """An operation needs a cutoff kernel: the sigma route cannot evaluate a non-cutoff one."""


class UnsupportedParameterError(CollkitError):
    """Parameter combination outside the supported range (e.g. gamma = -d in 2D)."""


class KernelRejectionError(CollkitError):
    """Angular cross-section fails the integrability condition."""


class ConfigurationError(CollkitError):
    """A contact or crude-bound configuration violates its hypotheses."""


class InfeasibleError(CollkitError):
    """A threshold search has no feasible region for the given parameters."""


class ColdGasError(CollkitError):
    """Zero-temperature (cold gas) state where a Maxwellian is degenerate."""


class RunAbortedError(CollkitError):
    """A time-stepping run violated a validity invariant; carries the partial log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log
