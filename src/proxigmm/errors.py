"""Exception taxonomy for proxigmm.

Every error raised by the library derives from :class:`ProxiGmmError`, so
callers can catch one type at an estimation boundary (a Monte Carlo worker,
a CLI command) and treat the replication or run as failed.
"""


class ProxiGmmError(Exception):
    """Base class for all proxigmm errors."""


# ---------------------------------------------------------------------------
# data loading / validation


class MissingColumn(ProxiGmmError):
    """A column named in the variable roles is absent from the file."""


class NonBinaryTreatment(ProxiGmmError):
    """The treatment column contains a value other than 0 or 1."""


class NonFiniteValue(ProxiGmmError):
    """A required cell is NaN, infinite, or not parseable as a number."""


class EmptyData(ProxiGmmError):
    """The file or dataset has no observation rows."""


class UnknownColumn(ProxiGmmError):
    """A column name is assigned to more than one variable role, or a
    role's column appears more than once in a file's header."""


# ---------------------------------------------------------------------------
# sieve basis construction


class KTooLarge(ProxiGmmError):
    """More basis columns were requested than the term family provides."""


class DegenerateColumn(ProxiGmmError):
    """A generated basis column is numerically constant zero."""


class RankDeficient(ProxiGmmError):
    """Basis columns are linearly dependent beyond the drop tolerance;
    ``full_rank_prefix`` counts the leading columns that pass the test."""

    def __init__(self, message: str, full_rank_prefix: int) -> None:
        super().__init__(message)
        self.full_rank_prefix = full_rank_prefix

    def __reduce__(self):
        # ``args`` holds the message alone; copies and unpickling call
        # ``__init__`` with the prefix as well.
        return type(self), (*self.args, self.full_rank_prefix), self.__dict__


class DimensionMismatch(ProxiGmmError):
    """An input's shape is inconsistent with the fitted object."""


# ---------------------------------------------------------------------------
# bridge functions


class DegenerateConfounding(ProxiGmmError):
    """Closed-form bridge coefficients are undefined because a proxy does
    not load on the unmeasured confounder."""


# ---------------------------------------------------------------------------
# GMM core


class RankDeficientJacobian(ProxiGmmError):
    """The moment Jacobian does not identify the bridge parameters."""


class TooFewMoments(ProxiGmmError):
    """Fewer spectral directions were retained than parameters to identify."""


class SingularVariance(ProxiGmmError):
    """A sandwich variance cannot be formed, or is not positive."""


class NoConvergence(ProxiGmmError):
    """An iterative solver exhausted its iteration or restart budget."""


# ---------------------------------------------------------------------------
# moment-count selection


class AllCandidatesSingular(ProxiGmmError):
    """Every candidate moment count produced a singular criterion."""


# ---------------------------------------------------------------------------
# baseline estimators


class RankDeficientDesign(ProxiGmmError):
    """A regression design matrix is rank deficient."""


class SingularSystem(ProxiGmmError):
    """``pipw``'s stacked Jacobian is singular (``baselines._reweighting_reports``)."""


def _unless_error(out):
    """``out``, or ``out`` raised if it is a :class:`ProxiGmmError`. The
    name is cleared as the error leaves, so the frames of its traceback do
    not hold it: a caller that takes it out of a list and holds no other
    reference leaves no cycle, and the datasets those frames hold are
    freed with the error."""
    if isinstance(out, ProxiGmmError):
        try:
            raise out
        finally:
            out = None
    return out
