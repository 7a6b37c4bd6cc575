"""Compute true maximum deltas on small domains and compare variants.

On a tiny input domain the maximum cost difference can be computed exactly
by brute force, which is how the fuzzer's findings are validated. This
script sweeps every benchmark pair over two-byte binary segments and prints
the unsafe/safe maxima side by side, then shows the structured oracle
reaching domain sizes brute force cannot: it takes the secrets at the
extremes of the driver's declared statistic against one public input, so
its execution count is the number of those secrets. Each (pub, secret)
pair runs the target twice, the second run checking that its cost is
deterministic, so the target runs twice per counted execution.

Run: python3 demos/02_ground_truth_oracle.py
"""

from deltafuzz import driver_names, exhaustive_max_delta, get_driver, structured_max_delta


def main():
    print("exhaustive maxima, 2-byte segments, binary alphabet")
    print(f"{'benchmark':20} {'unsafe':>8} {'safe':>8}  dimension")
    print("-" * 56)
    names = driver_names()
    for unsafe_name in names:
        if unsafe_name.endswith("_safe"):
            continue  # shown beside its unsafe twin
        bench = unsafe_name.removesuffix("_unsafe")
        if f"{bench}_safe" in names:
            safe = exhaustive_max_delta(get_driver(f"{bench}_safe"), 2, charset="binary")
            safe_delta = safe.max_delta
        else:
            safe_delta = "-"
        unsafe = exhaustive_max_delta(get_driver(unsafe_name), 2, charset="binary")
        dim = get_driver(unsafe_name).cost_dimension
        print(f"{bench:20} {unsafe.max_delta:>8} {str(safe_delta):>8}  {dim}")

    print()
    print("structured oracle: full byte alphabets, segment lengths brute")
    print("force cannot enumerate (the driver declares which secret")
    print("statistic drives its cost; each secret at its extremes is")
    print("paired with one public input, and each pair runs twice)")
    print()
    for name, length in (("pwcheck_unsafe", 16), ("jetty_eq_unsafe", 8),
                         ("modpow_unsafe", 8), ("pad_unsafe", 8)):
        res = structured_max_delta(get_driver(name), length)
        print(
            f"{name:20} len={length:<3} max_delta={res.max_delta:<5} "
            f"statistic={res.statistic} ({res.executions} pairs)"
        )


if __name__ == "__main__":
    main()
