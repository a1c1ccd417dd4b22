"""Loading this file puts ``tests/`` on ``sys.path`` (pytest's default
import mode inserts a rootless conftest's directory), so suites in
subdirectories can import the shared top-level helpers — e.g.
``dispatchutil`` — however pytest is pointed at them."""
