"""CSV block formatting, and a writer process that formats while a run goes on.

:func:`format_block` is the one CSV block formatter: :func:`sim.emit_csv`
calls it in-process, and the child process of a :class:`Writer` calls it
on the blocks a run hands over.  The child takes its files as arguments,
a path and a header each, opens each as ``<path>.part`` and writes its
header.  It then reads frames from its stdin: a block of a file (a row
template, a row count and the block's float64 values as raw bytes, which
it reads back bit for bit) and the end of every file.  It renames each
``<path>.part`` to ``<path>`` at the end frame, so a child that stops
before then renames nothing.  A child whose stdin ends before the end
frame, at a frame's end or inside one, as when its parent was killed,
removes every ``.part`` file and exits quietly.  This module imports only
the standard library, so the child starts without numpy.
"""

import contextlib
import os
import struct
import sys

# kind (block or end), file, rows, then the byte lengths of a row template
# and of the values, which follow the frame's head
_HEAD = struct.Struct("<cIIII")
# bytes of the child's stdin: Linux's default ceiling for an unprivileged
# process, and more than the about 250 KB a run hands over at one instant
# (two motor blocks mid-run, the last blocks at its end)
_PIPE = 1 << 20


def format_block(row: str, n: int, values) -> str:
    """``n`` rows of the ``%`` template ``row`` filled from the flat
    ``values``; repr's NaN, ``nan``, which no other field holds, is written
    as an empty field."""
    return ((row * n) % tuple(values)).replace("nan", "")


class Writer:
    """A context manager that writes ``files``, ``(path, header)`` pairs,
    through a child process, one :meth:`block` at a time; ``paths`` lists
    their paths.

    The writer is that one process and the pipe to its stdin, sized
    ``_PIPE`` bytes where the OS allows it, and starts no thread: a
    :meth:`block` writes its frame into the pipe itself, so it waits only
    while the child is a whole pipe behind, and a run holds no block the
    child has not taken.  A child that failed makes the next :meth:`block`
    raise ``OSError`` naming the file, and so does leaving the context
    without an exception, which otherwise ends every file and waits for
    the child's renames.  Leaving it on an exception kills the child.
    After an exception or a failure the ``.part`` files are removed, and
    in every case no process or pipe outlives the context.
    """

    def __init__(self, files):
        # imported here, so that the child and a process that only formats
        # never load it
        import subprocess
        self.paths = [path for path, _ in files]
        # isolated and without site: the child needs the standard library
        # only; Popen passes each path as the bytes of its file name
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__),
             *(arg for pair in files for arg in pair)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        # another OS, or a lower pipe-max-size, keeps the default pipe:
        # the same bytes, with more waits on the child
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl
            fcntl.fcntl(self._proc.stdin, fcntl.F_SETPIPE_SZ, _PIPE)

    def block(self, fid: int, row: str, n: int, values) -> None:
        """Append ``n`` rows of template ``row`` to file ``fid``, filled
        from ``values``, a C-contiguous buffer of native float64s.  It
        returns once the frame is in the pipe, and keeps no reference to
        ``values``."""
        row = row.encode()
        pipe = self._proc.stdin
        try:
            pipe.write(_HEAD.pack(b"b", fid, n, len(row),
                                  memoryview(values).nbytes) + row)
            pipe.write(values)
            pipe.flush()
        except BrokenPipeError:     # the child exited before the end
            raise self._failure(self._proc.communicate()[1]) from None

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
            # the end frame: communicate flushes it, ignoring the EPIPE of a
            # child that has exited
            proc.stdin.write(_HEAD.pack(b"e", 0, 0, 0, 0))
        else:
            proc.kill()
        # closes stdin, however the child ended, and reads stderr to its end
        err = proc.communicate()[1]
        if exc_type is not None or proc.returncode:
            for path in self.paths:
                # absent, or a directory the child could not replace
                with contextlib.suppress(OSError):
                    os.remove(path + ".part")
        if exc_type is None and proc.returncode:
            raise self._failure(err)


def _main() -> None:
    """The child: write the files its arguments name from the frames on
    stdin; on a failure exit 1 with the file and the reason on stderr.  A
    stdin that ends before the end frame removes the ``.part`` files, and
    the child exits 0 with nothing on stderr: its parent, if alive, has
    given the files up."""
    def read(size: int) -> bytes:
        """The next ``size`` bytes of stdin; ``EOFError`` if it ends first."""
        if len(data := sys.stdin.buffer.read(size)) < size:
            raise EOFError
        return data

    paths, files, fid = sys.argv[1::2], [], 0
    try:
        for fid, (path, header) in enumerate(zip(paths, sys.argv[2::2])):
            files.append(open(path + ".part", "w", newline=""))
            files[fid].write(header)
        while (frame := _HEAD.unpack(read(_HEAD.size)))[0] != b"e":
            _, fid, n, a, b = frame
            files[fid].write(format_block(
                read(a).decode(), n, memoryview(read(b)).cast("d").tolist()))
        for fid, fh in enumerate(files):
            fh.close()
            os.replace(paths[fid] + ".part", paths[fid])
    except OSError as exc:
        sys.exit(f"failed writing trace CSV {paths[fid]}: {exc}")
    except EOFError:     # no end frame: every file is incomplete
        for fh in files:
            with contextlib.suppress(OSError):
                fh.close()
            with contextlib.suppress(OSError):
                os.remove(fh.name)


if __name__ == "__main__":
    _main()
