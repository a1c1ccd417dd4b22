"""Function-level reachability hook for ``src/repro`` (stdlib only).

Put this directory first on ``PYTHONPATH`` and name an output
directory in ``REPRO_REACH_DIR``; without that variable the hook does
nothing.  Every Python process started under it -- pytest, the
end-to-end harness and the servers it spawns, forked pool and pre-fork
workers -- records each ``repro`` function it calls (``sys.settrace``
and ``threading.settrace``, call events only) and writes one file of
``path:first-line:name`` keys into that directory when it ends:
normally, through ``os._exit``, or on SIGTERM.  ``report.py`` beside
this file classifies the keys.
"""

import atexit
import os
import signal
import sys
import threading

OUT = os.environ.get("REPRO_REACH_DIR")
MARK = os.sep + os.path.join("src", "repro") + os.sep

if OUT:
    _checked = set()
    _seen = set()

    def _trace(frame, event, arg):
        code = frame.f_code
        if code not in _checked:
            _checked.add(code)
            if MARK in code.co_filename:
                _seen.add(code)
        return None

    _dumped = set()

    def _dump():
        pid = os.getpid()
        if pid in _dumped:
            return
        _dumped.add(pid)
        keys = sorted({
            "{}:{}:{}".format(
                code.co_filename.split(MARK, 1)[1].replace(os.sep, "/"),
                code.co_firstlineno, code.co_name)
            for code in list(_seen)})
        # pid plus a random tag: a long run may reuse a pid.
        path = os.path.join(OUT, "{}-{}.txt".format(pid, os.urandom(4).hex()))
        with open(path, "w") as handle:
            handle.write("\n".join(keys) + "\n")

    _exit = os._exit

    def _dump_then_exit(status):
        _dump()
        _exit(status)

    def _on_sigterm(signum, frame):
        _dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    os.makedirs(OUT, exist_ok=True)
    os._exit = _dump_then_exit
    atexit.register(_dump)
    signal.signal(signal.SIGTERM, _on_sigterm)
    threading.settrace(_trace)
    sys.settrace(_trace)
