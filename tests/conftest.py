import functools

from cherednik.groups import build_group
from cherednik.pbw import CherednikAlgebra, Parameter
from cherednik.restricted import build_restricted


@functools.lru_cache(maxsize=None)
def group(spec):
    return build_group(spec)


@functools.lru_cache(maxsize=None)
def parameter(spec, ctag, seed=0):
    g = group(spec)
    if ctag == "zero":
        return Parameter.zero(g)
    if ctag == "generic":
        return Parameter.generic(g, seed=seed)
    return Parameter.constant(g, int(ctag))


@functools.lru_cache(maxsize=None)
def algebra(spec, ctag, seed=0):
    return CherednikAlgebra(group(spec), parameter(spec, ctag, seed))


@functools.lru_cache(maxsize=None)
def restricted(spec, ctag, seed=0):
    return build_restricted(group(spec), parameter(spec, ctag, seed))


@functools.lru_cache(maxsize=None)
def partition(spec, ctag, seed=0, verify=True):
    return restricted(spec, ctag, seed).cm_partition(verify=verify)
