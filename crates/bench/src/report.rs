//! Table, format and verdict helpers shared by the experiments.

/// Prints a Markdown-style table header.
pub fn table_header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Prints one table row.
pub fn table_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// One gated verdict of an experiment: prints `check ok: <name>` when
/// `ok` holds, else fails naming the check and what was `measured`.
pub fn check(name: &str, ok: bool, measured: impl std::fmt::Display) -> Result<(), String> {
    if ok {
        println!("check ok: {name}");
        Ok(())
    } else {
        Err(format!("check `{name}` failed: {measured}"))
    }
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
    }

    #[test]
    fn check_names_the_failed_verdict() {
        assert_eq!(check("holds", true, "x"), Ok(()));
        assert_eq!(
            check("lost nothing", false, "lost 3"),
            Err("check `lost nothing` failed: lost 3".to_string())
        );
    }
}
