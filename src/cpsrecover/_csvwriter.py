"""CSV block formatting, and a writer process that formats while a run goes on.

:func:`format_block` is the one CSV block formatter: :func:`sim.write_csv`
calls it in-process, and the child process of a :class:`Writer` calls it
on the blocks a run hands over.  The child reads frames from its stdin:
open a file (its path and header), a block of a file (a row template, a
row count and the block's float64 values as raw bytes, which it reads
back bit for bit) and end every file.  It writes each file as
``<path>.part`` and renames it to ``<path>`` at the end frame, so a child
that stops before then renames nothing.  This module imports only the
standard library, so the child starts without numpy.
"""

import contextlib
import os
import struct
import sys

# kind (open, block, end all), file, rows, then the byte lengths of a text
# and of a data payload, which follow the frame's head
_HEAD = struct.Struct("<cIIII")


def format_block(row: str, n: int, values) -> str:
    """``n`` rows of the ``%`` template ``row`` filled from the flat
    ``values``; repr's NaN, ``nan``, which no other field holds, is written
    as an empty field."""
    return ((row * n) % tuple(values)).replace("nan", "")


def _frame(kind: bytes, fid: int, n=0, text="", data=b"") -> bytes:
    text = text.encode()
    return _HEAD.pack(kind, fid, n, len(text), len(data)) + text + data


class Writer:
    """A context manager that writes ``files``, ``(path, header)`` pairs,
    through a child process, one :meth:`block` at a time.

    A daemon feeder thread writes the frames to the child's stdin, so
    :meth:`block` never waits on the pipe.  A child that failed makes the
    next :meth:`block` raise ``OSError`` naming the file, and so does
    leaving the context without an exception, which otherwise ends every
    file and waits for the child's renames.  Leaving it on an exception
    kills the child.  After an exception or a failure the
    ``.part`` files are removed, and in every case no process, thread or
    pipe outlives the context.
    """

    def __init__(self, files):
        # imported here, so that the child and a process that only formats
        # never load them
        import queue
        import subprocess
        import threading
        self._paths = []
        self._frames = queue.SimpleQueue()
        for fid, (path, header) in enumerate(files):
            self._paths.append(path)
            self._frames.put(_frame(b"o", fid, 0, path, header.encode()))
        # isolated and without site: the child needs the standard library only
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        self._feeder = threading.Thread(target=self._feed, daemon=True)
        self._feeder.start()

    def _feed(self) -> None:
        pipe = self._proc.stdin
        while (frame := self._frames.get()) is not None:
            try:
                pipe.write(frame)
                pipe.flush()
            except OSError:     # the child stopped; __exit__ says why
                pass

    def block(self, fid: int, row: str, n: int, values: bytes) -> None:
        """Append ``n`` rows of template ``row`` to file ``fid``, filled
        from ``values``, native float64s."""
        if self._proc.poll() is not None:   # the child stopped before the end
            raise self._failure(self._proc.stderr.read())
        self._frames.put(_frame(b"b", fid, n, row, values))

    def _failure(self, stderr: bytes) -> OSError:
        """The error of a child that exited, from what it wrote to stderr."""
        err = stderr.decode(errors="replace").strip()
        code = self._proc.returncode
        return OSError(err or f"trace CSV writer exited {code}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        proc = self._proc
        if exc_type is None:
            self._frames.put(_frame(b"e", 0))
        else:
            proc.kill()
        self._frames.put(None)
        self._feeder.join()
        # closes stdin, however the child ended, and reads stderr to its end
        err = proc.communicate()[1]
        if exc_type is not None or proc.returncode:
            for path in self._paths:
                # absent, or a directory the child could not replace
                with contextlib.suppress(OSError):
                    os.remove(path + ".part")
        if exc_type is None and proc.returncode:
            raise self._failure(err)


def _main() -> None:
    """The child: write the files the frames on stdin describe; on a failure
    exit 1 with the file and the reason on stderr."""
    read = sys.stdin.buffer.read
    paths, files, fid = {}, {}, None
    try:
        while head := read(_HEAD.size):
            kind, fid, n, a, b = _HEAD.unpack(head)
            text, data = read(a).decode(), read(b)
            if kind == b"o":
                paths[fid] = text
                files[fid] = open(text + ".part", "w", newline="")
                files[fid].write(data.decode())
            elif kind == b"b":
                files[fid].write(format_block(
                    text, n, memoryview(data).cast("d").tolist()))
            else:
                for fid, fh in files.items():
                    fh.close()
                    os.replace(paths[fid] + ".part", paths[fid])
    except OSError as exc:
        sys.exit(f"failed writing trace CSV {paths.get(fid)}: {exc}")


if __name__ == "__main__":
    _main()
