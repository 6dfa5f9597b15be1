"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """A computation was asked to exceed its size guard."""


class ConfigError(ValueError):
    """A sweep configuration failed validation.

    ``path`` locates the offending field, e.g. ``axes.L[1]``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
