"""Hand-written expected outputs for the bundled corpus.

These are written out by hand from the corpus sources, not produced by the
code under test; they agree with the goldens the unit tests assert for
the nine `libcorpus` library functions.
"""

# summarize_library(libcorpus, include_control_deps=False)
LIBCORPUS_EXPLICIT = {
    "memcpy": {"param0": ["param1"], "ret": ["param0"]},
    "memset_a": {"param0": ["param1"], "ret": ["param0"]},
    "strcpy_a": {"param0": ["param1"], "ret": ["param0"]},
    "strlen_a": {},
    "abs_a": {"ret": ["param0"]},
    "pair_cpy": {"param0.a": ["param1.a"], "param0.b": ["param1.b"]},
    "student_cpy": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "enroll": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "copy_twice": {"param0": ["param1", "param2"], "param1": ["param2"]},
}

# summarize_library(libcorpus, include_control_deps=True), the CLI default
LIBCORPUS_CDEP = {
    "memcpy": {"param0": ["param1", "param2"], "ret": ["param0"]},
    "memset_a": {"param0": ["param1", "param2"], "ret": ["param0"]},
    "strcpy_a": {"param0": ["param1"], "ret": ["param0"]},
    "strlen_a": {"ret": ["param0"]},
    "abs_a": {"ret": ["param0"]},
    "pair_cpy": {"param0.a": ["param1.a"], "param0.b": ["param1.b"]},
    "student_cpy": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "enroll": {"@stu.id": ["param0.id"], "@stu.score": ["param0.score"]},
    "copy_twice": {"param0": ["param1", "param2", "param3"],
                   "param1": ["param2", "param3"]},
}

# The README's source/sink configuration for student_flow: console input
# read by @fgets_a carries label 1 and must reach @printf_a in both modes.
STUDENT_FLOW_CONFIG = {
    "sources": [{"fn": "fgets_a", "where": "param", "index": 0, "label": 1}],
    "sinks": [{"fn": "printf_a", "index": 0}],
}
STUDENT_FLOW_SINK_TAGS = [1]

# bench_memcpy: @src_buf and @dst_buf are 2048 bytes each, so n <= 2048.
BUF_BYTES = 2048
MEMCPY_N = 2048
MEMCPY_LABEL = 1
BENCH_USER_N = 256
BENCH_USER_LABEL = 2


def entries_as_strs(entries) -> dict[str, list[str]]:
    """Summary or decompiled rule entries as {out: sorted ins}."""
    return {str(out): sorted(str(i) for i in ins) for out, ins in entries}
