"""Exception types shared across the package."""


class MvpruneError(Exception):
    pass


class ShapeError(MvpruneError):
    """Operand dimensions do not line up."""


class ContractError(MvpruneError):
    """An API precondition was violated."""


class ConfigError(MvpruneError):
    """A configuration value is out of range or unknown."""


class LoadError(MvpruneError):
    """A dataset file is missing or unreadable."""


class FormatError(MvpruneError):
    """A dataset file is present but malformed."""


class SplitError(MvpruneError):
    """The dataset is too small to split."""


class TrainingDiverged(MvpruneError):
    """A loss became non-finite during optimization: at `seed` and `epoch`, on
    dataset graph `graph`, whose loss terms were `parts`."""

    def __init__(self, seed: int, epoch: int, graph: int, parts: dict):
        self.seed, self.epoch, self.graph, self.parts = seed, epoch, graph, dict(parts)
        super().__init__(f"non-finite loss at seed {seed}, epoch {epoch}, graph {graph}: "
                         f"{self.parts}")

    def __reduce__(self):
        return type(self), (self.seed, self.epoch, self.graph, self.parts)
