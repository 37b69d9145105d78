# Imported before any test module loads numpy, so the suite runs under the
# package's BLAS thread default, with the same bits as the CLI.
import wgqed  # noqa: F401
