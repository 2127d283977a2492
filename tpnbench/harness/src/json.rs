//! A linear-time JSON reader for reply lines.
//!
//! Trace replies inline a Chrome trace document of up to a megabyte, and
//! the client reads every reply inside the closed loop, so the reader
//! must cost O(bytes). Strings and arrays are checked for syntax but not
//! kept: the oracle reads only numbers, booleans and object keys.

#[derive(Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str,
    Arr,
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.ws();
        let hit = self.bytes.get(self.pos) == Some(&byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.bytes[self.pos..];
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected ':' at {}", self.pos));
                    }
                    pairs.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(pairs));
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected ',' at {}", self.pos));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                if self.eat(b']') {
                    return Ok(Json::Arr);
                }
                loop {
                    self.value()?;
                    if self.eat(b']') {
                        return Ok(Json::Arr);
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected ',' at {}", self.pos));
                    }
                }
            }
            Some(b'"') => self.string().map(|_| Json::Str),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    /// A string's raw bytes between its quotes; escapes are skipped over,
    /// not decoded (object keys never hold any).
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at {}", self.pos));
        }
        let start = self.pos + 1;
        let mut at = start;
        loop {
            match self.bytes.get(at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => at += 2,
                Some(_) => at += 1,
            }
        }
        self.pos = at + 1;
        String::from_utf8(self.bytes[start..at].to_vec()).map_err(|_| "invalid UTF-8".into())
    }
}
