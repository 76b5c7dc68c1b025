"""The one memo type: a dict that computes and stores a value on a miss;
and the one registry of the module-level memos, `module_memos`."""


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


def memos_of(value):
    """The Memos that `value` is: [value] for a Memo, the values of a
    nonempty dict of Memos, else []."""
    if isinstance(value, Memo):
        return [value]
    if (isinstance(value, dict) and value
            and all(isinstance(m, Memo) for m in value.values())):
        return list(value.values())
    return []


def module_memos():
    """(module, name, value) for every global of a qrea module that is a
    Memo or a dict of Memos, by module name, then in definition order."""
    import importlib  # here: only --timings and the tests walk the modules
    import pkgutil
    package = importlib.import_module(__package__)
    out = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{__package__}.{info.name}")
        out += [(module, name, value) for name, value in vars(module).items()
                if memos_of(value)]
    return out
