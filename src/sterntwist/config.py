"""Shared configuration knobs: built-in defaults.  CLI flags win over the
environment, which wins over these."""
from __future__ import annotations

#: Environment variable overriding the default truncation order of the CLI.
ORDER_ENV_VAR = "STERNTWIST_ORDER"

#: Truncation order of the CLI's series when neither --order nor the
#: environment gives one.
TRUNCATION_ORDER = 1024

#: Default --max-e of `verify`.
MAX_E = 10

#: Inputs with more binary digits than this are rejected by the explicit
#: subsequence enumerators.
ENUMERATION_GUARD_BITS = 24
