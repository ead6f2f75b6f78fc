//! Table 1: the prototype feature matrix.
//!
//! The table the paper uses to communicate the decomposition: which apps,
//! user-library pieces, kernel-core features, file layers and IO devices each
//! prototype includes. The apps and the user library are declared here, by
//! the first prototype that has each. The kernel-core, file and IO rows are
//! the kernel's own table, [`kernel::Feature`], which boot and the syscall
//! gates read too, so Table 1 cannot drift from what the kernel enforces.
//! The renderer prints the same check-mark layout.

use kernel::Feature;

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

/// A row present from prototype `first_stage` on.
fn from_stage(section: &'static str, name: &'static str, first_stage: u8) -> FeatureRow {
    FeatureRow {
        section,
        name,
        present: std::array::from_fn(|i| i as u8 + 1 >= first_stage),
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
    rows.extend(
        Feature::ALL
            .iter()
            .map(|f| from_stage(f.section(), f.name(), f.first().number())),
    );
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
    fn render_prints_the_whole_of_table1() {
        let expected = "\
Feature                       P1  P2  P3  P4  P5
-- Apps --
helloworld                     x   x   x   x   x
donut                          x   x   x   x   x
mario                                  x   x   x
sysmon                                     x   x
shell & utilities                          x   x
slider                                     x   x
buzzer                                     x   x
MusicPlayer                                    x
DOOM                                           x
launcher                                       x
blockchain                                     x
VideoPlayer                                    x
malloc, syscalls, strings              x   x   x
proc/devfs wrappers                        x   x
libc, minisdl & more                           x
-- Kernel core --
debug msg                      x   x   x   x   x
timer, timekeeping             x   x   x   x   x
irq                            x   x   x   x   x
multitasking                       x   x   x   x
memory allocator                   x   x   x   x
privileges (EL0/1)                     x   x   x
virtual memory                         x   x   x
syscalls: tasks & time                 x   x   x
syscalls: files                            x   x
syscalls: threading                            x
multicore                                      x
window manager                                 x
-- Files --
file abstraction                           x   x
procfs/devfs                               x   x
ramdisk                                    x   x
xv6 filesystem                             x   x
FAT32                                          x
-- IO --
UART                           x   x   x   x   x
timers (sys, generic)          x   x   x   x   x
framebuffer                    x   x   x   x   x
USB keyboard                               x   x
sound (PWM)                                x   x
SD card                                        x
";
        assert_eq!(render(), expected);
    }

    #[test]
    fn rendering_contains_all_sections() {
        let text = render();
        for section in ["Apps", "Kernel core", "Files", "IO"] {
            assert!(text.contains(section));
        }
    }
}
