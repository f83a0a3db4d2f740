//! Just enough JSON to read `BENCHMARK.json` in the quick mode.

use std::collections::BTreeMap;

#[derive(Debug)]
pub enum Value {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: src.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        if self.s.get(self.at) == Some(&b) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.at..].starts_with(w.as_bytes()) {
            self.at += w.len();
            Ok(v)
        } else {
            Err(self.err("unexpected word"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut m = BTreeMap::new();
                if self.eat(b'}') {
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.value()? else {
                        return Err(self.err("object key must be a string"));
                    };
                    if !self.eat(b':') {
                        return Err(self.err("expected `:`"));
                    }
                    m.insert(k, self.value()?);
                    if self.eat(b'}') {
                        return Ok(Value::Obj(m));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut a = Vec::new();
                if self.eat(b']') {
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Value::Arr(a));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'"') => {
                self.at += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.at) {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.at += 1;
                            return Ok(Value::Str(out));
                        }
                        Some(b'\\') => {
                            let c = *self
                                .s
                                .get(self.at + 1)
                                .ok_or_else(|| self.err("bad escape"))?;
                            out.push(match c {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.at += 2;
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.at..])
                                .map_err(|_| self.err("bad UTF-8"))?;
                            let ch = rest.chars().next().expect("not at end");
                            out.push(ch);
                            self.at += ch.len_utf8();
                        }
                    }
                }
            }
            Some(b't') => self.word("true", Value::Bool),
            Some(b'f') => self.word("false", Value::Bool),
            Some(b'n') => self.word("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                Ok(Value::Num)
            }
            _ => Err(self.err("unexpected character")),
        }
    }
}
