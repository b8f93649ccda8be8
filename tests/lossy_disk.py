"""A test twin of `itstore.stores.FileLayer` that models what a crash loses.

`LossyDisk` overrides only the layer's changing primitives. Each one still
changes the real files under `base`, so the code under test runs as usual,
and also updates a model of the tree: per directory its entries now and as
of its last fsync, per file its bytes now and as of its last fsync. After
every change, and between a write and its fsync, it takes a crash point:
every state a crash there may leave, each a mapping of paths relative to
`base` to bytes (None for a directory):

  - every unsynced change kept, or every one dropped;
  - unsynced directory entries kept and unsynced bytes dropped, or the
    reverse;
  - everything kept but the last unsynced write, torn to a prefix.

Dropping a directory entry drops the subtree under it. The states are
gathered, without repeats, in `states`; `materialize` writes one out for
the real stores to reopen.

    with lossy(root) as disk:
        operation()
    for state in disk.states.values(): ...
"""

from contextlib import contextmanager
from pathlib import Path

import itstore.stores as stores_mod

DIRECTORY = None  # an entry's value when it names a directory


class LossyDisk(stores_mod.FileLayer):

    def __init__(self, base):
        self.base = Path(base)
        self.files = {}  # inode -> [bytes now, bytes as last fsynced]
        self.dirs = {}  # relative path -> [entries now, entries as synced]
        self.last_write = None  # (inode, bytes before, mode, data)
        self.states = {}  # state key -> state, in crash-point order
        self._scan(self.base, ".")
        self.crash_point()

    def _scan(self, path, rel):
        entries = {}
        for child in sorted(path.iterdir()):
            name = "%s/%s" % (rel, child.name)
            if child.is_dir():
                entries[child.name] = DIRECTORY
                self._scan(child, name)
            else:
                data = child.read_bytes()
                entries[child.name] = self._new_inode(data)
        self.dirs[rel] = [entries, dict(entries)]

    def _new_inode(self, data=b""):
        inode = len(self.files)
        self.files[inode] = [data, data]
        return inode

    def _rel(self, path) -> str:
        """The model's name for path: "." for base, "./a/b" below it."""
        parts = Path(path).resolve().relative_to(self.base.resolve()).parts
        return "/".join((".",) + parts)

    def _where(self, path) -> tuple:
        """(the parent directory's model name, the entry's name)."""
        parent, _slash, name = self._rel(path).rpartition("/")
        return parent, name

    def _entry(self, path):
        parent, name = self._where(path)
        return self.dirs[parent][0].get(name)

    # ------------------------------------------------------- primitives

    def write(self, path, data, mode="wb", sync=True):
        super().write(path, data, mode, sync=False)
        parent, name = self._where(path)
        entries = self.dirs[parent][0]
        if name not in entries:
            entries[name] = self._new_inode()
        inode = entries[name]
        before = self.files[inode][0]
        if mode == "wb":
            after = data
        elif mode == "ab":
            after = before + data
        else:
            after = data + before[len(data):]
        self.files[inode][0] = after
        if data:
            self.last_write = (inode, before, mode, data)
        self.crash_point()
        if sync:
            super().write(path, b"", "ab")  # the real fsync, counted once
            self.files[inode][1] = after
            self.crash_point()

    def truncate(self, path, size):
        super().truncate(path, size)
        inode = self._entry(path)
        self.files[inode][0] = self.files[inode][0][:size]
        self.crash_point()

    def rename(self, source, target):
        super().rename(source, target)
        parent, name = self._where(source)
        target_parent, target_name = self._where(target)
        assert parent == target_parent
        entries = self.dirs[parent][0]
        entries[target_name] = entries.pop(name)
        self.crash_point()

    def unlink(self, path):
        super().unlink(path)
        parent, name = self._where(path)
        del self.dirs[parent][0][name]
        self.crash_point()

    def make_directory(self, directory):
        super().make_directory(directory)
        parent, name = self._where(directory)
        rel = "%s/%s" % (parent, name)
        if rel not in self.dirs:
            assert parent in self.dirs, "make one level at a time"
            self.dirs[parent][0][name] = DIRECTORY
            self.dirs[rel] = [{}, {}]
        self.crash_point()

    def sync_directory(self, directory):
        super().sync_directory(directory)
        entries = self.dirs[self._rel(directory)]
        entries[1] = dict(entries[0])
        self.crash_point()

    # ------------------------------------------------------ crash states

    def image(self, synced_entries: bool, synced_bytes: bool,
              torn: "tuple | None" = None) -> dict:
        """One crash state: paths relative to base -> bytes, or None for
        a directory. torn maps one inode to the bytes it is torn to."""
        out = {}

        def walk(rel):
            for name, value in self.dirs[rel][synced_entries].items():
                path = "%s/%s" % (rel, name)
                if value is DIRECTORY:
                    out[path[2:]] = None
                    walk(path)
                elif torn is not None and value == torn[0]:
                    out[path[2:]] = torn[1]
                else:
                    out[path[2:]] = self.files[value][synced_bytes]

        walk(".")
        return out

    def crash_point(self):
        images = [self.image(e, b) for e in (False, True)
                  for b in (False, True)]
        if self.last_write is not None:
            inode, before, mode, data = self.last_write
            if self.files[inode][0] != self.files[inode][1]:
                for cut in sorted({1, len(data) // 2, len(data) - 1} - {0}):
                    torn = {"wb": data[:cut], "ab": before + data[:cut],
                            "r+b": data[:cut] + before[cut:]}[mode]
                    images.append(self.image(False, False, (inode, torn)))
        for state in images:
            self.states.setdefault(tuple(sorted(state.items())), state)

    def durable(self) -> dict:
        """What survives a crash right now, whatever else is lost."""
        return self.image(True, True)


@contextmanager
def lossy(base):
    """Route `itstore.stores.DISK` through a LossyDisk over base."""
    disk = LossyDisk(base)
    real = stores_mod.DISK
    stores_mod.DISK = disk
    try:
        yield disk
    finally:
        stores_mod.DISK = real


def materialize(state: dict, target) -> Path:
    """Write one crash state out under target, which must not exist."""
    target = Path(target)
    target.mkdir(parents=True)
    for rel, data in sorted(state.items()):
        path = target / rel
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
    return target
