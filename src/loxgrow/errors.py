"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes; see loxgrow.cli.
"""


class LoxgrowError(Exception):
    pass


class ConfigError(LoxgrowError):
    """Bad user input: malformed config, unknown keys, invalid backend params."""


class BackendMismatch(LoxgrowError):
    """Operands created by different backends were mixed."""


class NotInGroup(ConfigError):
    """A matrix outside the backend's group (wrong determinant etc.)."""


class EmptyAfterReduction(ConfigError):
    """Generating-set construction left no nontrivial elements."""


class NotSymmetric(ConfigError):
    """symmetrize=False was passed but the input set is not closed under inverses."""


class BudgetExceeded(LoxgrowError):
    """A memory or enumeration cap was hit.

    `completed` carries the last fully finished unit of work (e.g. BFS radius).
    """

    def __init__(self, message, completed=None):
        super().__init__(message)
        self.completed = completed


class HypothesisFailed(LoxgrowError):
    """A chain fails the local product inequality at interior index `index` (1-based)."""

    def __init__(self, index, message=None):
        super().__init__(message or f"chain hypothesis fails at interior point {index}")
        self.index = index


class NotLoxodromic(LoxgrowError):
    pass


class ElementaryDetected(LoxgrowError):
    """Base for outcomes where the acting subgroup looks elementary.

    `escalation_rounds` counts the ball squarings done before the verdict.
    """

    def __init__(self, message, escalation_rounds=0):
        super().__init__(message)
        self.escalation_rounds = escalation_rounds


class NoLoxodromicFound(ElementaryDetected):
    """No loxodromic among the candidates; the caller escalates."""


class AllElementary(ElementaryDetected):
    """Every generator lies in the elementary closure of the pivot element."""


class LikelyElementary(ElementaryDetected):
    """Escalation exhausted its round budget without progress."""


class SearchExhausted(LoxgrowError):
    """The (n, k) amplification search ran out of budget without a certificate."""


class ExactWordProblemUnavailable(LoxgrowError):
    """The backend cannot decide exact equality (float arithmetic)."""


class InvalidCertificate(LoxgrowError):
    """A certificate failed independent re-verification."""


class HeuristicOnly(UserWarning):
    """The answer came from a float-backend heuristic, not an exact decision."""
