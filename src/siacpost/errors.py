"""The package's usage error: an input that the caller chose and can fix."""


class UsageError(ValueError):
    """A bad input (unknown name, value out of range); the CLI exits 2 on it."""
