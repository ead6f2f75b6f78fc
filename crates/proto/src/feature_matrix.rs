//! Table 1: the prototype feature matrix.
//!
//! The table the paper uses to communicate the decomposition: which apps,
//! user-library pieces, kernel-core features, file layers and IO devices each
//! prototype includes. Every capability the kernel checks comes from
//! [`kernel::KernelConfig`], so it cannot drift from what the kernel actually
//! enforces; the other rows (apps, the user library, and kernel features
//! nothing checks, such as the UART) name the first prototype that has
//! them. The renderer prints the same check-mark layout.

use kernel::{KernelConfig, PrototypeStage};

/// One row of the feature matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureRow {
    /// Section of the table ("Apps", "User lib", "Kernel core", "Files", "IO").
    pub section: &'static str,
    /// Feature name.
    pub name: &'static str,
    /// Presence in prototypes 1..=5.
    pub present: [bool; 5],
}

fn configs() -> Vec<KernelConfig> {
    PrototypeStage::ALL
        .iter()
        .map(|s| KernelConfig::for_stage(*s))
        .collect()
}

fn row(section: &'static str, name: &'static str, f: impl Fn(&KernelConfig) -> bool) -> FeatureRow {
    let cfgs = configs();
    let mut present = [false; 5];
    for (i, c) in cfgs.iter().enumerate() {
        present[i] = f(c);
    }
    FeatureRow {
        section,
        name,
        present,
    }
}

/// A row present from prototype `first_stage` on.
fn from_stage(section: &'static str, name: &'static str, first_stage: u8) -> FeatureRow {
    let mut present = [false; 5];
    for (i, p) in present.iter_mut().enumerate() {
        *p = (i as u8 + 1) >= first_stage;
    }
    FeatureRow {
        section,
        name,
        present,
    }
}

/// Builds the full feature matrix (Table 1).
pub fn feature_matrix() -> Vec<FeatureRow> {
    let mut rows = vec![
        // Apps (first prototype in which each app runs).
        from_stage("Apps", "helloworld", 1),
        from_stage("Apps", "donut", 1),
        from_stage("Apps", "mario", 3),
        from_stage("Apps", "sysmon", 4),
        from_stage("Apps", "shell & utilities", 4),
        from_stage("Apps", "slider", 4),
        from_stage("Apps", "buzzer", 4),
        from_stage("Apps", "MusicPlayer", 5),
        from_stage("Apps", "DOOM", 5),
        from_stage("Apps", "launcher", 5),
        from_stage("Apps", "blockchain", 5),
        from_stage("Apps", "VideoPlayer", 5),
        // User library.
        from_stage("Apps", "malloc, syscalls, strings", 3),
        from_stage("Apps", "proc/devfs wrappers", 4),
        from_stage("Apps", "libc, minisdl & more", 5),
    ];
    // The capabilities the kernel checks come from its config.
    rows.extend([
        from_stage("Kernel core", "debug msg", 1),
        from_stage("Kernel core", "timer, timekeeping", 1),
        from_stage("Kernel core", "irq", 1),
        row("Kernel core", "multitasking", |c| c.multitasking),
        from_stage("Kernel core", "memory allocator", 2),
        from_stage("Kernel core", "privileges (EL0/1)", 3),
        row("Kernel core", "virtual memory", |c| c.virtual_memory),
        row("Kernel core", "syscalls: tasks & time", |c| {
            c.syscalls_tasks
        }),
        row("Kernel core", "syscalls: files", |c| c.syscalls_files),
        row("Kernel core", "syscalls: threading", |c| {
            c.syscalls_threading
        }),
        row("Kernel core", "multicore", |c| c.multicore),
        row("Kernel core", "window manager", |c| c.window_manager),
        row("Files", "file abstraction", |c| c.file_abstraction),
        from_stage("Files", "procfs/devfs", 4),
        from_stage("Files", "ramdisk", 4),
        row("Files", "xv6 filesystem", |c| c.xv6fs),
        row("Files", "FAT32", |c| c.fat32),
        from_stage("IO", "UART", 1),
        from_stage("IO", "timers (sys, generic)", 1),
        row("IO", "framebuffer", |c| c.framebuffer),
        row("IO", "USB keyboard", |c| c.usb_keyboard),
        row("IO", "sound (PWM)", |c| c.sound),
        row("IO", "SD card", |c| c.sd_card),
    ]);
    rows
}

/// Renders the matrix as a text table, one column per prototype.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>3} {:>3} {:>3} {:>3} {:>3}\n",
        "Feature", "P1", "P2", "P3", "P4", "P5"
    ));
    let mut last_section = "";
    for row in feature_matrix() {
        if row.section != last_section {
            out.push_str(&format!("-- {} --\n", row.section));
            last_section = row.section;
        }
        out.push_str(&format!("{:<28}", row.name));
        for p in row.present {
            out.push_str(&format!(" {:>3}", if p { "x" } else { "" }));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_monotone_across_prototypes() {
        // Once a feature appears it never disappears in a later prototype.
        for row in feature_matrix() {
            for i in 1..5 {
                assert!(
                    !row.present[i - 1] || row.present[i],
                    "{} regressed at prototype {}",
                    row.name,
                    i + 1
                );
            }
        }
    }

    #[test]
    fn key_milestones_match_table1() {
        let rows = feature_matrix();
        let find = |name: &str| rows.iter().find(|r| r.name == name).unwrap().present;
        assert_eq!(find("virtual memory"), [false, false, true, true, true]);
        assert_eq!(find("FAT32"), [false, false, false, false, true]);
        assert_eq!(find("DOOM"), [false, false, false, false, true]);
        assert_eq!(find("mario"), [false, false, true, true, true]);
        assert_eq!(find("USB keyboard"), [false, false, false, true, true]);
        assert_eq!(find("multicore"), [false, false, false, false, true]);
        assert_eq!(find("UART"), [true; 5]);
        assert_eq!(find("memory allocator"), [false, true, true, true, true]);
        assert_eq!(find("privileges (EL0/1)"), [false, false, true, true, true]);
        assert_eq!(find("ramdisk"), [false, false, false, true, true]);
    }

    #[test]
    fn rendering_contains_all_sections() {
        let text = render();
        for section in ["Apps", "Kernel core", "Files", "IO"] {
            assert!(text.contains(section));
        }
    }
}
