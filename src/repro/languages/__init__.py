"""Language definitions and word samplers.

Every experiment in the paper is parameterized by a language: regular ones
for the ``O(n)`` upper bounds (Theorems 1, 6), and specific non-regular ones
for the lower bounds and the §7 hierarchy.  A :class:`Language` couples a
membership predicate with exact-length positive/negative samplers, which is
what ring experiments need (the ring has exactly ``n`` processors, so test
words must have exact lengths).
"""

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "Language": ".base",
    "FunctionLanguage": ".base",
    "RegularLanguage": ".regular",
    "regex_language": ".regular",
    "parity_language": ".regular",
    "mod_count_language": ".regular",
    "substring_language": ".regular",
    "length_mod_language": ".regular",
    "tradeoff_language": ".regular",
    "TradeoffLanguage": ".regular",
    "AnBn": ".nonregular",
    "AnBnCn": ".nonregular",
    "DyckLanguage": ".nonregular",
    "CopyLanguage": ".nonregular",
    "MarkedPalindrome": ".nonregular",
    "EqualCounts": ".nonregular",
    "MajorityLanguage": ".nonregular",
    "PrimeLength": ".nonregular",
    "SquareLanguage": ".nonregular",
    "GrowthFunction": ".hierarchy",
    "PeriodicLanguage": ".hierarchy",
    "STANDARD_GROWTHS": ".hierarchy",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
