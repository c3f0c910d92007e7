"""Exception taxonomy shared by the whole package."""


class InputError(ValueError):
    """Malformed or out-of-contract input: bad permutation, unknown label, invalid surface."""


class ResourceError(RuntimeError):
    """A size bound (group order, tuple enumeration, handle count, printable digits) would be exceeded."""


class ConsistencyError(RuntimeError):
    """An internal invariant that should be unbreakable failed; indicates an upstream bug."""
