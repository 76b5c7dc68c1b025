"""The one memo type: a dict that computes and stores a value on a miss."""


class Memo(dict):
    """{key: compute(key)}, filled on first lookup: `memo[key]` returns the
    stored value, computing and storing it if the key is new.  `get`, `in`
    and `len` see only what has been stored."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value
