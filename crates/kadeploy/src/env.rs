//! System environments (deployable images).

use std::fmt;

/// Flavour of a system image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// Minimal installation.
    Min,
    /// Base installation with common tools.
    Base,
    /// Full installation with development stacks.
    Big,
    /// Base plus NFS home mounts.
    Nfs,
    /// Xen hypervisor image.
    Xen,
}

impl fmt::Display for EnvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EnvKind::Min => "min",
            EnvKind::Base => "base",
            EnvKind::Big => "big",
            EnvKind::Nfs => "nfs",
            EnvKind::Xen => "xen",
        };
        f.write_str(s)
    }
}

/// A deployable system environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    /// Image name, e.g. `"debian9-base"`.
    pub name: String,
    /// Operating system, e.g. `"debian9"`.
    pub os: String,
    /// Image flavour.
    pub kind: EnvKind,
    /// Compressed image size in MB (drives broadcast time).
    pub size_mb: u32,
    /// Kernel version the image boots.
    pub kernel: String,
    /// Content hash for traceability (Kameleon-built images fill this).
    pub content_hash: u64,
}

impl Environment {
    /// Construct a named environment.
    pub fn new(os: &str, kind: EnvKind, size_mb: u32, kernel: &str) -> Self {
        Environment {
            name: format!("{os}-{kind}"),
            os: os.to_string(),
            kind,
            size_mb,
            kernel: kernel.to_string(),
            content_hash: 0,
        }
    }
}

/// The 14 standard images of the paper's `test_environments` matrix
/// (slide 15: "14 images X 32 clusters = 448 configurations").
pub fn standard_images() -> Vec<Environment> {
    let mut v = Vec::with_capacity(14);
    for os in ["debian8", "debian9"] {
        let kernel = if os == "debian8" { "3.16.0-4" } else { "4.9.0-3" };
        v.push(Environment::new(os, EnvKind::Min, 450, kernel));
        v.push(Environment::new(os, EnvKind::Base, 750, kernel));
        v.push(Environment::new(os, EnvKind::Big, 1900, kernel));
        v.push(Environment::new(os, EnvKind::Nfs, 800, kernel));
        v.push(Environment::new(os, EnvKind::Xen, 1000, kernel));
    }
    for (os, kernel) in [("centos7", "3.10.0-514"), ("ubuntu1604", "4.4.0-62")] {
        v.push(Environment::new(os, EnvKind::Min, 500, kernel));
        v.push(Environment::new(os, EnvKind::Base, 850, kernel));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_fourteen_standard_images() {
        let imgs = standard_images();
        assert_eq!(imgs.len(), 14, "slide 15: 14 images");
        let names: HashSet<&str> = imgs.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names.len(), 14, "names unique");
        assert!(names.contains("debian9-base"));
        assert!(names.contains("centos7-min"));
        assert!(names.contains("ubuntu1604-base"));
    }

    #[test]
    fn naming_convention() {
        let e = Environment::new("debian9", EnvKind::Xen, 1000, "4.9.0-3");
        assert_eq!(e.name, "debian9-xen");
        assert_eq!(e.kind, EnvKind::Xen);
    }

    #[test]
    fn sizes_are_plausible() {
        for e in standard_images() {
            assert!(e.size_mb >= 300 && e.size_mb <= 3000, "{}: {}", e.name, e.size_mb);
        }
    }
}
